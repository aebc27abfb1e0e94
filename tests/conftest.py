import pytest

from rekpool.geometry import from_blob, to_blob


@pytest.fixture(scope="session")
def edit_blob():
    """edit_blob(holder, key, edit) replaces holder[key], an array object
    of a pool file, by one of the same dtype that holds edit(a), where a
    is a writable copy of the array it held."""
    def edit(holder, key, change):
        dtype = holder[key]["dtype"]
        holder[key] = to_blob(change(from_blob(holder, key, dtype).copy()), dtype)
    return edit
