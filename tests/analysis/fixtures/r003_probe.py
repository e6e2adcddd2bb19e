"""R003 golden fixture: an unguarded device-probe call in device code."""
# repro-lint: module=repro.ssd.fixture


class Device:
    def __init__(self, probe=None):
        self._probe = probe

    def submit(self, request):
        if self._probe is not None:
            self._probe.submit(request)

    def complete(self, request):
        self._probe.request_done(request, None)
