"""The correctness gate accepts the reference outputs and rejects the
defects it exists to catch."""

import copy

import checks


def _profile(workload):
    return checks.load_reference(workload, "profile")


def _coupling():
    return checks.load_reference("coupling", "coupling")


def test_reference_profiles_pass():
    cert = checks.load_certificate()
    for workload in ("worst-start", "zero-start"):
        ref = _profile(workload)
        assert checks.check_profile(copy.deepcopy(ref), ref, cert) == []


def test_profile_perturbed_by_1e_13_is_rejected():
    ref = _profile("zero-start")
    rows = copy.deepcopy(ref)
    i = len(rows) // 2
    rows[i]["d_of_t"] = repr(float(rows[i]["d_of_t"]) + 1e-13)
    problems = checks.check_profile(rows, ref, checks.load_certificate())
    assert len(problems) == 1 and "vs reference" in problems[0]


def test_profile_within_tolerance_is_accepted():
    ref = _profile("worst-start")
    rows = copy.deepcopy(ref)
    i = len(rows) - 1
    rows[i]["d_of_t"] = repr(float(rows[i]["d_of_t"]) + 5e-15)
    assert checks.check_profile(rows, ref, checks.load_certificate()) == []


def test_profile_lost_mass_and_certificate_violations_are_rejected():
    ref = _profile("zero-start")
    cert = checks.load_certificate()
    rows = copy.deepcopy(ref)
    rows[3]["lost_mass"] = "2e-14"
    assert any("lost_mass" in p for p in checks.check_profile(rows, ref, cert))
    rows = copy.deepcopy(ref)
    cert = dict(cert)
    key = (int(rows[5]["n"]), int(rows[5]["t"]))
    cert[key] = float(rows[5]["d_of_t"]) + 1e-9
    assert any("certified" in p for p in checks.check_profile(rows, ref, cert))


def test_profile_grid_change_is_rejected():
    ref = _profile("worst-start")
    rows = copy.deepcopy(ref)[:-1]
    assert "grid" in checks.check_profile(rows, ref, checks.load_certificate())[0]


def test_reference_coupling_passes_and_noise_is_tolerated():
    ref = _coupling()
    assert checks.check_coupling(copy.deepcopy(ref), ref) == []
    rows = copy.deepcopy(ref)
    for r in rows:  # one combined half-width lower everywhere: sampling noise
        s, hw = float(r["empirical_survival"]), float(r["ci_halfwidth"])
        r["empirical_survival"] = repr(max(0.0, s - 1.4 * hw))
    assert checks.check_coupling(rows, ref) == []


def test_coupling_curve_above_bound_is_rejected():
    ref = _coupling()
    rows = copy.deepcopy(ref)
    late = [r for r in rows if float(r["theoretical_bound"]) < 0.01]
    assert late
    for r in late:
        r["empirical_survival"] = "0.02"
    # keep the curve non-increasing so only the bound check can fire
    for r in rows[:rows.index(late[0])]:
        r["empirical_survival"] = repr(max(float(r["empirical_survival"]), 0.02))
    problems = checks.check_coupling(rows, ref)
    assert any("above bound" in p for p in problems)
    assert not any("rises" in p for p in problems)


def test_coupling_rising_or_out_of_range_curve_is_rejected():
    ref = _coupling()
    rows = copy.deepcopy(ref)
    rows[-1]["empirical_survival"] = rows[0]["empirical_survival"]
    assert any("rises" in p for p in checks.check_coupling(rows, ref))
    rows = copy.deepcopy(ref)
    rows[0]["empirical_survival"] = "1.5"
    assert any("outside [0, 1]" in p for p in checks.check_coupling(rows, ref))


def test_analytic_values_compared_relative_digest_ignored():
    for experiment in ("schedule", "lowerbound", "approx"):
        ref = checks.load_reference("analytic", experiment)
        rows = copy.deepcopy(ref)
        for r in rows:
            r["config_digest"] = "00000000"
        assert checks.check_exact(rows, ref) == []
    ref = checks.load_reference("analytic", "approx")
    rows = copy.deepcopy(ref)
    rows[1]["exact_tv"] = repr(float(rows[1]["exact_tv"]) * (1 + 1e-11))
    assert checks.check_exact(rows, ref) == [
        f"row 1 exact_tv: {rows[1]['exact_tv']!r} vs reference "
        f"{ref[1]['exact_tv']!r}"]


def test_non_zero_exit_is_rejected():
    problems = checks.check_invocation("zero-start", "profile", 3, None)
    assert problems == ["profile exited with code 3"]
    assert checks.check_invocation("coupling", "coupling", 0, None)


def test_invocation_with_reference_payload_passes():
    with open(checks.reference_path("analytic", "lowerbound"),
              encoding="utf-8") as fh:
        text = fh.read()
    assert checks.check_invocation("analytic", "lowerbound", 0, text) == []
