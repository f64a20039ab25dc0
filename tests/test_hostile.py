"""Seeded hostile inputs: every mutated fixture document ends its command
with one of the CLI's exit codes, never an exception."""

import hostile


def test_mutated_documents_exit_with_a_cli_code(tmp_path):
    """400 cases of seed 3, about a second and a half.  Seed 3 is the one
    that found a driver resistance of 1e-320, whose conductance overflows,
    ending sim in a LinAlgError."""
    hostile.fixtures_in(tmp_path)
    selected = hostile.cases(3, 400)
    assert any(case.mutation == "set drivers/rs_ohms to 1e-320" for case in selected)
    with hostile.address_space_limit(2 << 30):
        failed, _ = hostile.failures(selected, str(tmp_path))
    assert not failed, "\n".join("%s: exit %s\n%s" % f for f in failed)


def test_mutated_waveforms_read_alike_on_one_and_three_cpus(tmp_path):
    """Eight waveform cases of seed 7, one of each mutation, on link-pair
    and link-twelve, read in 4 KiB ranges with --svg and --folded: under a
    second.  Each exits with a CLI code and no traceback, and its exit
    code, error stream, eye report, SVG and folded CSV on three CPUs are
    those on one."""
    hostile.fixtures_in(tmp_path)
    selected = hostile.wave_cases(7, 8)
    assert {case.link for case in selected} == set(hostile.WAVE_LINKS)
    with hostile.address_space_limit(2 << 30):
        failed, codes = hostile.wave_failures(selected, str(tmp_path))
    assert not failed, "\n".join("%s: exit %s\n%s" % f for f in failed)
    assert codes[0] and codes[2]
