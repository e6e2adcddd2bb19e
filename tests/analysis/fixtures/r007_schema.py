"""R007 golden fixture: a writer stamping schema_version by hand."""
# repro-lint: module=repro.fixture.store

STORE_SCHEMA_VERSION = 3


def export_state(items):
    return {
        "schema_version": STORE_SCHEMA_VERSION,
        "items": list(items),
    }
