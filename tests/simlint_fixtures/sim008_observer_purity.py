# Fixture for SIM008 (observer-purity).  See sim001 fixture for the
# marker convention.  NOT imported — parsed by simlint only.


class BadObserver:
    def __init__(self, ssd):
        self.ssd = ssd
        self.seen = 0

    def observe(self, event):
        self.seen += 1  # own state: allowed
        event.consumed = True  # expect: SIM008

    def tamper(self, ssd):
        ssd.clock = 0.0  # expect: SIM008

    def tamper_nested(self):
        self.ssd.stats.host_read_pages = 0  # expect: SIM008

    def tamper_augmented(self, device):
        device.events_processed += 1  # expect: SIM008

    def tamper_annotated(self, device):
        device.telemetry: object = None  # expect: SIM008

    def tamper_tuple(self, device):
        device.mode, count = "off", 0  # expect: SIM008
        return count

    def drive_submit(self, ssd, request):
        return ssd.submit(*request)  # expect: SIM008

    def drive_crash(self, device):
        device.power_fail()  # expect: SIM008

    def drive_loop(self, loop):
        loop.run()  # expect: SIM008

    def sanctioned_attach(self, ssd):
        ssd.telemetry = self  # simlint: disable=SIM008


class OkObserver:
    def __init__(self):
        self.active = {}
        self.rows = []

    def observe(self, event, counters):
        self.active[id(event)] = event  # subscript on own state
        counters["events"] = counters.get("events", 0) + 1
        self.rows.append(event)

    def export(self, handle, payload):
        handle.write(payload)  # file I/O, not a sim mutator

    def peek(self, device):
        free: float  # bare annotation, no assignment
        free = device.free_ratio()
        return free
