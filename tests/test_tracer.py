"""The benchmark's outside-in tracer still fits the library it patches."""

import pathlib

import orlicz as oz

PERFBENCH = pathlib.Path(__file__).parent.parent / "perfbench"


def test_traced_volume_matches_and_uninstall_restores(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracer

    phi = oz.Orthotropic((oz.Power(1.5), oz.Power(2.5)))
    plain = oz.sublevel_volume(phi, 1.0)
    t = tracer.Tracer()
    t.install()
    try:
        patched = list(t._patched)
        # the wrapper hands the volume a stand-in with only n and __call__
        traced = oz.sublevel_volume(phi, 1.0)
    finally:
        t.uninstall()
    # the stand-in has no ``values``, so its rays are evaluated row by row
    # through ``__call__``: the same tolerance as for any such object
    (vol, err), (ref, ref_err) = traced, plain
    assert abs(vol - ref) <= 2e-12 * ref and abs(err - ref_err) <= 4e-12 * ref
    spans = t.arrays()
    volume = spans["name"] == t.names.index("aniso.sublevel_volume")
    assert volume.sum() == 1 and spans["arg"][volume][0] > 0
    assert patched and all(vars(owner)[attr] is original for owner, attr, original in patched)


def test_traced_log_families_record_their_scalar_calls(monkeypatch):
    # both classes inherit one __call__; the tracer wraps it where it is defined
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracer

    t = tracer.Tracer()
    t.install()
    try:
        calls = {cls: cls(2, 1)(3.0) for cls in (oz.PowerLog, oz.PowerLogLog)}
    finally:
        t.uninstall()
    spans = t.arrays()
    evals = spans["name"] == t.names.index("young.eval")
    assert evals.sum() == 2
    assert calls == {cls: cls(2, 1)(3.0) for cls in calls}
