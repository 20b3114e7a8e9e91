from fractions import Fraction as Q

ACCEPTANCE_LINES = []


def record_acceptance(line):
    ACCEPTANCE_LINES.append(line)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.write_line("")
        terminalreporter.write_line("acceptance criteria:")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line("  " + line)


def dirac_l_table(params, j_max=Q(13, 2)):
    """The calibration outcome, spelled out for tests that need a table."""
    values = {}
    j = Q(3, 2)
    while j <= j_max:
        for eps in (1, -1):
            values[(j, eps)] = eps * (j + Q(params.n - 2, 2))
        j += 1
    return values
