import math
import random
from itertools import combinations

import pytest

from netnum import abstraction as ab
from netnum import expr as ex
from netnum import instantiate as it
from netnum.reference import REFERENCE_SESSIONS_OF_LINK, TOY_SESSIONS_OF_LINK

from conftest import JOCP_RATE


def test_config_invariants():
    assert it.InstanceConfig().capacity == 184756
    with pytest.raises(it.CardinalityError):
        it.InstanceConfig(n_glb=3, n_lcl=5)


def test_instantiate_global(jocp_problem):
    cfg = it.InstanceConfig(n_glb=3, n_lcl=2)
    assert it.instantiate_global("netses", cfg, jocp_problem) == (0, 1, 2)
    assert it.instantiate_global("netlnk", it.InstanceConfig(), jocp_problem) \
        == tuple(range(20))
    assert it.instantiate_global("netses", it.InstanceConfig(1, 1), jocp_problem) \
        == (0,)
    with pytest.raises(it.NotGlobal):
        it.instantiate_global("lnkses", cfg, jocp_problem)


def test_sample_local_whole_mother():
    cfg = it.InstanceConfig(n_glb=4, n_lcl=4)
    rng = random.Random(0)
    assert it.sample_local((0, 1, 2, 3), cfg, rng) == (0, 1, 2, 3)


def test_sample_local_deterministic():
    cfg = it.InstanceConfig(n_glb=20, n_lcl=10, seed=5)
    a = it.sample_local(tuple(range(20)), cfg, random.Random(5))
    b = it.sample_local(tuple(range(20)), cfg, random.Random(5))
    assert a == b


def test_sample_local_cardinality_error():
    with pytest.raises(it.CardinalityError):
        it.sample_local((0, 1), it.InstanceConfig(n_glb=5, n_lcl=3), random.Random(0))


def test_sample_local_uniform_over_subsets():
    cfg = it.InstanceConfig(n_glb=5, n_lcl=2)
    rng = random.Random(123)
    counts = {}
    n = 10_000
    for _ in range(n):
        s = it.sample_local(tuple(range(5)), cfg, rng)
        counts[s] = counts.get(s, 0) + 1
    assert len(counts) == 10
    for s, c in counts.items():
        assert abs(c / n - 0.1) < 0.02, (s, c)


def test_hash_id_sort_invariance():
    assert it.hash_id((3, 1, 2)) == it.hash_id((1, 2, 3))


def test_hash_id_fixed_vectors():
    assert it.hash_id(()) == 0xCBF29CE484222325
    assert it.hash_id((1, 2, 3)) == 0xDA2BFB225E0D1F05


def _hash_id_bytewise(instance):
    # FNV-1a over each sorted member's 8 little-endian bytes, one at a time
    h = 0xCBF29CE484222325
    for member in sorted(instance):
        for b in member.to_bytes(8, "little"):
            h = ((h ^ b) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return h


def test_hash_id_matches_bytewise_reference():
    rng = random.Random(5)
    for _ in range(3000):
        top = rng.choice((20, 256, 257, 70_000, 1 << 40, 1 << 62))
        instance = tuple(rng.sample(range(top), rng.randint(0, 10)))
        assert it.hash_id(instance) == _hash_id_bytewise(instance), instance
    for edge in ((0,), (255,), (256,), (255, 256), ((1 << 64) - 1,), (0, 1 << 56)):
        assert it.hash_id(edge) == _hash_id_bytewise(edge), edge
    with pytest.raises(OverflowError):
        it.hash_id((-1,))


def test_hash_id_separates_all_small_subsets():
    sets = []
    for k in (1, 2, 3):
        sets.extend(combinations(range(20), k))
    hashes = {it.hash_id(s) for s in sets}
    assert len(hashes) == len(sets)
    assert it.hash_id((1, 2)) != it.hash_id((1, 2, 3))


def test_toy_instantiation_matches_worked_example(toy_inst):
    inst, imap = toy_inst
    assert ex.render(inst.utility) == "sesrate_00 + sesrate_01 + sesrate_02"
    rendered = [f"{ex.render(c.lhs)} <= {ex.render(c.rhs)}" for c in inst.constraints]
    assert rendered == [
        "sesrate_00 + sesrate_01 <= lnkcap_00",
        "sesrate_00 + sesrate_02 <= lnkcap_01",
        "sesrate_01 + sesrate_02 <= lnkcap_02",
    ]


def test_rule2_violation_rejected(jocp_problem):
    cfg = it.InstanceConfig(n_glb=3, n_lcl=2)
    preset = {"lnkses": {0: (1, 2), 1: (2, 1), 2: (0, 1)}}
    with pytest.raises(it.RuleViolation):
        it.instantiate_problem(jocp_problem, cfg, preset=preset)


def test_proper_subset_preset_rejected(jocp_problem):
    # instance 0 is a proper subset of instance 1; the cardinality check
    # refuses it, with or without a given n_lcl
    preset = {0: (0, 1), 1: (0, 1, 2), 2: (1, 2)}
    for n_lcl in (None, 2):
        with pytest.raises(it.RuleViolation, match="equal cardinality"):
            it.check_rules(preset, n_lcl)
    with pytest.raises(it.RuleViolation, match="equal cardinality"):
        it.instantiate_problem(jocp_problem, it.InstanceConfig(n_glb=3, n_lcl=2),
                               preset={"lnkses": preset})


def test_rules_hold_on_random_instantiations(jocp_problem):
    for seed in range(25):
        cfg = it.InstanceConfig(seed=seed)
        _, imap = it.instantiate_problem(jocp_problem, cfg)
        fam = imap.lcl["lnkses"]
        it.check_rules(fam.instances, cfg.n_lcl)
        assert len({it.hash_id(v) for v in fam.instances.values()}) == len(fam.instances)


def test_rule_check_refuses_equal_handed_over_hashes():
    # the sampler hands its hash ids to the rule check, which still
    # requires them pairwise distinct
    instances = {0: (0, 1), 1: (0, 2), 2: (1, 2)}
    it.check_rules(instances, 2, [it.hash_id(v) for v in instances.values()])
    with pytest.raises(it.RuleViolation, match="hash ids of peer instances"):
        it.check_rules(instances, 2, [7, 7, 8])


def test_determinism(jocp_problem):
    cfg = it.InstanceConfig(seed=42)
    _, a = it.instantiate_problem(jocp_problem, cfg)
    _, b = it.instantiate_problem(jocp_problem, cfg)
    assert a.lcl["lnkses"].instances == b.lcl["lnkses"].instances


def test_capacity_exceeded():
    # three holders each need a distinct 1-subset of a 2-member mother
    with pytest.raises(it.CapacityExceeded):
        it._sample_family("lnkses", tuple(range(3)), (0, 1),
                          it.InstanceConfig(2, 1), random.Random(0))


def test_retry_exhausted():
    cfg = it.InstanceConfig(n_glb=4, n_lcl=2, max_retries=1)
    outcomes = set()
    for seed in range(200):
        try:
            it._sample_family("lnkses", tuple(range(6)), tuple(range(4)),
                              cfg, random.Random(seed))
            outcomes.add("ok")
        except it.RetryExhausted:
            outcomes.add("exhausted")
    assert outcomes == {"ok", "exhausted"}


def test_reference_map_inverts_to_links_of_session_4(jocp_inst):
    _, imap = jocp_inst
    assert imap.lcl["seslnk"].instances[4] == \
        (0, 3, 4, 7, 9, 10, 11, 12, 13, 14, 18, 19)


def test_toy_inversion(toy_inst):
    _, imap = toy_inst
    assert imap.lcl["seslnk"].instances == {0: (0, 1), 1: (0, 2), 2: (1, 2)}


def test_double_inversion_is_identity(jocp_problem, jocp_inst):
    _, imap = jocp_inst
    back = it.invert_map(imap, "seslnk", "lnkses", jocp_problem)
    assert back.instances == imap.lcl["lnkses"].instances


def test_invert_not_dual(jocp_problem, jocp_inst):
    _, imap = jocp_inst
    with pytest.raises(it.NotDual):
        it.invert_map(imap, "lnkses", "nbrnd", jocp_problem)


def test_inverse_cardinalities_not_forced(jocp_inst):
    _, imap = jocp_inst
    sizes = {len(v) for v in imap.lcl["seslnk"].instances.values()}
    assert len(sizes) > 1  # rule 1 binds the sampled family only


def test_box_referenced_family_is_derived_not_sampled():
    src = JOCP_RATE.replace(
        "decompose",
        "var wos_c path=netses.seslnk.lnkpwr quant=0,all,none\n"
        "constraint wos_c <= 5\ndecompose")
    p = ab.parse_problem(src)
    _, imap = it.instantiate_problem(p, it.InstanceConfig(seed=0))
    assert imap.lcl["seslnk"].derived
    assert not imap.lcl["lnkses"].derived
    # transposition still holds
    for s, links in imap.lcl["seslnk"].instances.items():
        for l in links:
            assert s in imap.lcl["lnkses"].instances[l]


def test_dump_table_layout(jocp_inst):
    _, imap = jocp_inst
    lines = it.dump_table(imap, "lnkses").splitlines()
    assert lines[1] == "0\t" + ", ".join(str(m) for m in
                                         REFERENCE_SESSIONS_OF_LINK[0])
    assert len(lines) == 21


def test_decision_registry_and_boxes():
    src = ("var wos_x path=netses.sesrate quant=all,none\n"
           "var wos_y path=netlnk.lnkses.sesrate quant=every,all,none\n"
           "utility max sum(wos_x)\n"
           "constraint sum(wos_y) <= 1\n"
           "constraint 0 <= wos_x\nconstraint wos_x <= 1\n"
           "decompose cross=dual dist=best_response\n")
    p = ab.parse_problem(src)
    inst, _ = it.instantiate_problem(
        p, it.InstanceConfig(3, 2, 7), preset={"lnkses": TOY_SESSIONS_OF_LINK})
    assert inst.decision_vars == ["sesrate_00", "sesrate_01", "sesrate_02"]
    assert inst.boxes["sesrate_00"] == (0.0, 1.0)
