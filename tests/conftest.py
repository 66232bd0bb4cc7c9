from hypothesis import settings

# Every hypothesis test draws its examples from a seed fixed by the test
# itself, so a failure on one machine reproduces on any other.
settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")

_acceptance_results = []


def record_acceptance(number: int, passed: bool, detail: str, elapsed: float) -> None:
    _acceptance_results.append((number, passed, detail, elapsed))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _acceptance_results:
        return
    terminalreporter.section("acceptance criteria")
    for number, passed, detail, elapsed in sorted(_acceptance_results):
        status = "PASS" if passed else "FAIL"
        terminalreporter.write_line(
            f"criterion {number}: {status} ({elapsed:.2f}s) {detail}")
