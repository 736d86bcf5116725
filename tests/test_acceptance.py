"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every tolerance is pinned here, nothing is deferred to calibration.
"""

import itertools
import math

import numpy as np
import yaml

from fedlora.aggregation import aggregate, influence_report, influence_scores, size_weights
from fedlora.cli import main
from fedlora.comm import PRESETS, preset_summary
from fedlora.datasim import PlantedRule, SiteSpec, generate_site, make_validation_set, shard
from fedlora.evaluate import evaluate_result, make_test_split
from fedlora.federation import FederationConfig, Strategy, run_federation
from fedlora.lora import AdapterPair, AdapterSet
from fedlora.metrics import (
    RelationInstance,
    Scheme,
    Span,
    relation_counts,
    span_counts,
    wilcoxon_rank_sum,
)
from fedlora.model import Backbone, Example, ModelConfig, SgdConfig, Task, ToyModel, grad, loss

SEEDS = (1, 2, 3, 4, 5)


def _passline(n, text):
    print(f"ACCEPTANCE {n} PASS: {text}")


def strict_mean(rows, task):
    return float(
        np.mean([r.f1 for r in rows if r.task == task and r.scheme == "strict"])
    )


# -- 1 ----------------------------------------------------------------------

def test_01_communication_arithmetic_exact(capsys):
    rows = preset_summary(PRESETS["llama3_8b"], rounds=2, site_counts=(2, 3))
    two, three = rows
    assert two["full_per_site_round_gb"] == "29.92"
    assert two["reduction_pct"] == 99.48
    assert two["lora_total_gb"] == "1.25"
    assert three["lora_total_gb"] == "1.88"
    assert three["lora_total_bytes"] / 2**30 == 1.875
    assert two["full_total_gb"] == "239"
    assert three["full_total_gb"] == "359"
    # and through the CLI front end
    assert main(["comm-report", "--preset", "llama3_8b", "--rounds", "2",
                 "--sites", "2,3"]) == 0
    out = capsys.readouterr().out
    for token in ("29.92", "99.48", "1.25", "1.88", "239", "359"):
        assert token in out
    _passline(1, "29.92 / 99.48% / 1.25 / 1.88 (1.875) / 239 / 359 reproduced exactly")


# -- 2 ----------------------------------------------------------------------

def test_02_fedavg_reduction_identity():
    rng = np.random.default_rng(2024)
    shapes = {"trunk": (6, 6), "tag_head": (6, 4)}
    for _ in range(200):
        m = int(rng.integers(1, 7))
        clients = {}
        for i in range(m):
            layers = {
                key: AdapterPair(
                    key, rng.normal(size=(d, 2)), rng.normal(size=(2, l)), 2, 4.0
                )
                for key, (d, l) in shapes.items()
            }
            clients[f"c{i}"] = AdapterSet(layers)
        sizes = {c: int(rng.integers(1, 2000)) for c in clients}
        shared_loss = float(rng.random() * 4)
        report = influence_report(
            sorted(clients), [sizes[c] for c in sorted(clients)], [shared_loss] * m
        )
        plain = size_weights(sizes, list(clients))
        for c in clients:
            assert abs(report.as_weight_map()[c] - plain[c]) <= 1e-12
        agg_plus = aggregate(clients, report.as_weight_map())
        agg_plain = aggregate(clients, plain)
        for key in shapes:
            assert np.array_equal(agg_plus[key].b, agg_plain[key].b)
            assert np.array_equal(agg_plus[key].a, agg_plain[key].a)
    _passline(2, "200 equal-loss configs: weights equal to 1e-12, aggregates bit-identical")


# -- 3 ----------------------------------------------------------------------

def test_03_influence_properties():
    rng = np.random.default_rng(3)
    for _ in range(50):
        losses = (rng.random(int(rng.integers(1, 9))) * 5).tolist()
        influences, _ = influence_scores(losses)
        assert abs(math.fsum(influences) - 1.0) <= 1e-12
        shifted, _ = influence_scores([l + 3.25 for l in losses])
        assert max(abs(a - b) for a, b in zip(influences, shifted)) <= 1e-12
        for i, j in itertools.permutations(range(len(losses)), 2):
            if losses[i] < losses[j]:
                assert influences[i] > influences[j]
    worked, _ = influence_scores([0.5, 1.0])
    assert abs(worked[0] - 0.62246) <= 1e-4
    assert abs(worked[1] - 0.37754) <= 1e-4
    _passline(3, "sum=1, shift invariance, strict monotonicity, worked pair (0.62246, 0.37754)")


# -- 4 ----------------------------------------------------------------------

def test_04_gradient_correctness():
    cfg = ModelConfig(
        vocab_size=20, hidden=8, tag_classes=9, relation_classes=16,
        rank=2, alpha=4.0, seed=5,
    )
    model = ToyModel.build(cfg)
    rng = np.random.default_rng(31)
    model = model.with_adapters(
        AdapterSet(
            {
                key: pair.with_factors(
                    rng.normal(0, 0.15, pair.b.shape), rng.normal(0, 0.15, pair.a.shape)
                )
                for key, pair in model.adapters.items()
            }
        )
    )
    brng = np.random.default_rng(41)
    batch = []
    for i in range(8):
        tokens = brng.integers(0, 20, size=6)
        if i % 2 == 0:
            batch.append(Example(Task.TAGGING, tokens, tags=tokens % 9))
        else:
            h, t = sorted(brng.choice(6, size=2, replace=False))
            batch.append(
                Example(Task.RELATION, tokens, head=int(h), tail=int(t),
                        relation=int((tokens[h] + tokens[t]) % 16))
            )

    analytic = grad(model, batch)
    step = 1e-5
    worst = 0.0
    for key, pair in model.adapters.items():
        for name, a_mat in zip(("b", "a"), analytic[key]):
            base = getattr(pair, name)
            for idx in np.ndindex(base.shape):
                probes = []
                for sign in (+1, -1):
                    bumped = base.copy()
                    bumped[idx] += sign * step
                    new_pair = (
                        pair.with_factors(bumped, pair.a)
                        if name == "b"
                        else pair.with_factors(pair.b, bumped)
                    )
                    layers = dict(model.adapters.layers)
                    layers[key] = new_pair
                    probes.append(loss(model.with_adapters(AdapterSet(layers)), batch))
                numeric = (probes[0] - probes[1]) / (2 * step)
                denom = max(abs(a_mat[idx]), abs(numeric), 1e-12)
                worst = max(worst, abs(a_mat[idx] - numeric) / denom)
    assert worst < 1e-5
    _passline(4, f"max relative gradient error {worst:.2e} < 1e-5 over all adapter entries")


# -- shared experiment helpers for 5-8 ---------------------------------------

RULE60 = PlantedRule(vocab_size=60)
SGD = SgdConfig(learning_rate=0.2, epochs=2, batch_size=16)


def backbone60(seed):
    return Backbone.build(
        ModelConfig(60, 64, RULE60.num_tags, RULE60.num_relations, 8, 16.0, seed=seed)
    )


def run_and_score(strategy, sites, tests, val, backbone, seed, rounds=2):
    cfg = FederationConfig(strategy, len(sites), rounds, SGD, seed=seed)
    result = run_federation(cfg, sites, val, backbone)
    return evaluate_result(result, backbone, RULE60, tests)


# -- 5 ----------------------------------------------------------------------

def test_05_strategy_ordering():
    means = {}
    for seed in SEEDS:
        backbone = backbone60(seed)
        specs = [
            SiteSpec("site0", 2000, dirichlet_alpha=0.5, noise_rate=0.1,
                     token_shift=0, seed=seed * 13 + 1),
            SiteSpec("site1", 2000, dirichlet_alpha=0.5, noise_rate=0.0,
                     token_shift=3, seed=seed * 13 + 2),
        ]
        sites = [generate_site(s, RULE60) for s in specs]
        tests = [make_test_split(s, 250, RULE60) for s in specs]
        val = make_validation_set(RULE60, 40, seed=seed * 13 + 3).examples
        for strategy in (Strategy.ZERO_SHOT, Strategy.SINGLE_SITE,
                         Strategy.INFLUENCE, Strategy.CENTRALIZED):
            rows = run_and_score(strategy, sites, tests, val, backbone, seed)
            for task in ("tagging", "relation"):
                means.setdefault((strategy, task), []).append(strict_mean(rows, task))

    for task in ("tagging", "relation"):
        zs = np.mean(means[(Strategy.ZERO_SHOT, task)])
        ss = np.mean(means[(Strategy.SINGLE_SITE, task)])
        fp = np.mean(means[(Strategy.INFLUENCE, task)])
        cen = np.mean(means[(Strategy.CENTRALIZED, task)])
        assert zs < ss, f"{task}: zero-shot {zs:.3f} !< single-site {ss:.3f}"
        assert ss < fp, f"{task}: single-site {ss:.3f} !< influence {fp:.3f}"
        assert fp <= cen + 0.02, f"{task}: influence {fp:.3f} > centralized {cen:.3f} + 2pt"
        _passline(5, f"{task}: {zs:.3f} < {ss:.3f} < {fp:.3f} <= {cen:.3f} + 0.02")


# -- 6 ----------------------------------------------------------------------

def test_06_heterogeneity_robustness():
    wins = 0
    pairs = []
    for seed in SEEDS:
        backbone = backbone60(seed)
        specs = [
            SiteSpec("site0", 1500, dirichlet_alpha=0.5, noise_rate=0.4,
                     token_shift=0, seed=seed * 11 + 1),
            SiteSpec("site1", 1500, dirichlet_alpha=0.5, noise_rate=0.0,
                     token_shift=0, seed=seed * 11 + 2),
            SiteSpec("site2", 1500, dirichlet_alpha=0.5, noise_rate=0.0,
                     token_shift=0, seed=seed * 11 + 3),
        ]
        sites = [generate_site(s, RULE60) for s in specs]
        tests = [make_test_split(s, 200, RULE60) for s in specs]
        val = make_validation_set(RULE60, 40, seed=seed * 11 + 4).examples
        scores = {}
        for strategy in (Strategy.FEDAVG, Strategy.INFLUENCE):
            rows = run_and_score(strategy, sites, tests, val, backbone, seed)
            scores[strategy] = float(
                np.mean([r.f1 for r in rows if r.scheme == "strict"])
            )
        pairs.append((scores[Strategy.FEDAVG], scores[Strategy.INFLUENCE]))
        if scores[Strategy.INFLUENCE] >= scores[Strategy.FEDAVG]:
            wins += 1
    assert wins >= 4, f"influence beat plain averaging in only {wins}/5 seeds: {pairs}"
    _passline(6, f"one 40%-noise site of three: influence >= plain averaging in {wins}/5 seeds")


# -- 7 ----------------------------------------------------------------------

def test_07_scalability():
    rule = PlantedRule(vocab_size=100)
    sgd = SgdConfig(0.2, 2, 16)
    pool_spec = SiteSpec("pool", 1000, dirichlet_alpha=1e6, noise_rate=0.0,
                         token_shift=0, seed=77)
    scores = {}
    for k in (1, 10):
        for strategy in (Strategy.INFLUENCE, Strategy.SINGLE_SITE):
            per_seed = []
            for seed in SEEDS:
                backbone = Backbone.build(
                    ModelConfig(100, 64, rule.num_tags, rule.num_relations, 8, 16.0, seed=seed)
                )
                pool = generate_site(pool_spec, rule)
                shards = shard(pool, k, seed=seed * 19)
                tests = [make_test_split(pool_spec, 300, rule)]
                val = make_validation_set(rule, 40, seed=seed * 19 + 5).examples
                cfg = FederationConfig(strategy, k, 6, sgd, seed=seed)
                result = run_federation(cfg, shards, val, backbone)
                rows = evaluate_result(result, backbone, rule, tests)
                per_seed.append(strict_mean(rows, "tagging"))
            scores[(strategy, k)] = float(np.mean(per_seed))

    fed_drop = scores[(Strategy.INFLUENCE, 1)] - scores[(Strategy.INFLUENCE, 10)]
    single_drop = scores[(Strategy.SINGLE_SITE, 1)] - scores[(Strategy.SINGLE_SITE, 10)]
    assert fed_drop <= 0.10, f"influence dropped {fed_drop:.3f} from k=1 to k=10"
    assert single_drop > fed_drop, (
        f"single-site drop {single_drop:.3f} not strictly worse than federated {fed_drop:.3f}"
    )
    _passline(
        7,
        f"k=1->10 tagging strict F1: federated drop {fed_drop:.3f} <= 0.10, "
        f"single-site drop {single_drop:.3f} strictly larger",
    )


# -- 8 ----------------------------------------------------------------------

def test_08_uneven_tasks():
    full_scores, uneven_scores, zero_scores = [], [], []
    both = (Task.TAGGING, Task.RELATION)
    for seed in SEEDS:
        backbone = backbone60(seed)
        spec0 = SiteSpec("site0", 2000, dirichlet_alpha=0.5, token_shift=0,
                         seed=seed * 13 + 1, tasks=both)
        spec1_full = SiteSpec("site1", 2000, dirichlet_alpha=0.5, token_shift=3,
                              seed=seed * 13 + 2, tasks=both)
        spec1_ner = SiteSpec("site1", 2000, dirichlet_alpha=0.5, token_shift=3,
                             seed=seed * 13 + 2, tasks=(Task.TAGGING,))
        tests = [make_test_split(s, 250, RULE60) for s in (spec0, spec1_full)]
        val = make_validation_set(RULE60, 40, seed=seed * 13 + 3).examples

        full_sites = [generate_site(spec0, RULE60), generate_site(spec1_full, RULE60)]
        uneven_sites = [generate_site(spec0, RULE60), generate_site(spec1_ner, RULE60)]
        full_scores.append(strict_mean(
            run_and_score(Strategy.INFLUENCE, full_sites, tests, val, backbone, seed),
            "relation",
        ))
        uneven_scores.append(strict_mean(
            run_and_score(Strategy.INFLUENCE, uneven_sites, tests, val, backbone, seed),
            "relation",
        ))
        zero_scores.append(strict_mean(
            run_and_score(Strategy.ZERO_SHOT, full_sites, tests, val, backbone, seed),
            "relation",
        ))

    full = float(np.mean(full_scores))
    uneven = float(np.mean(uneven_scores))
    zero = float(np.mean(zero_scores))
    drop = full - uneven
    assert drop > 0, f"removing one site's relation annotations did not reduce F1 ({drop:.3f})"
    assert drop < full - zero, (
        f"drop {drop:.3f} not smaller than the gap to zero-shot {full - zero:.3f}"
    )
    _passline(
        8,
        f"relation strict F1 {full:.3f} -> {uneven:.3f} (drop {drop:.3f}), "
        f"zero-shot gap {full - zero:.3f}",
    )


# -- 9 ----------------------------------------------------------------------

def exhaustive_matching(n_gold, n_pred, compatible):
    best = 0
    for size in range(min(n_gold, n_pred), 0, -1):
        for gold_subset in itertools.combinations(range(n_gold), size):
            for perm in itertools.permutations(range(n_pred), size):
                if all(compatible(g, p) for g, p in zip(gold_subset, perm)):
                    return size
    return best


def exact_rank_sum_p(a, b):
    combined = np.concatenate([np.asarray(a, float), np.asarray(b, float)])
    n = len(combined)
    order = np.argsort(combined, kind="mergesort")
    ranks = np.empty(n)
    sorted_vals = combined[order]
    i = 0
    while i < n:
        j = i
        while j + 1 < n and sorted_vals[j + 1] == sorted_vals[i]:
            j += 1
        ranks[order[i: j + 1]] = (i + j) / 2 + 1
        i = j + 1
    n_a = len(a)
    mu = n_a * (n + 1) / 2
    observed = abs(ranks[:n_a].sum() - mu)
    hits = total = 0
    for subset in itertools.combinations(range(n), n_a):
        total += 1
        if abs(ranks[list(subset)].sum() - mu) >= observed - 1e-9:
            hits += 1
    return hits / total


def test_09_metric_oracles():
    rng = np.random.default_rng(9)

    def random_spans():
        spans = []
        for _ in range(rng.integers(0, 7)):
            start = int(rng.integers(0, 10))
            spans.append(Span(start, start + int(rng.integers(1, 4)), int(rng.integers(1, 4))))
        return spans

    for _ in range(1000):
        gold, pred = random_spans(), random_spans()
        f1s = {}
        for scheme in Scheme:
            tp, fp, fn = span_counts(gold, pred, scheme)
            compatible = (
                (lambda i, j: gold[i] == pred[j])
                if scheme is Scheme.STRICT
                else (
                    lambda i, j: gold[i].overlaps(pred[j])
                    and gold[i].entity_type == pred[j].entity_type
                )
            )
            assert tp == exhaustive_matching(len(gold), len(pred), compatible)
            p = tp / (tp + fp) if tp + fp else 0.0
            r = tp / (tp + fn) if tp + fn else 0.0
            f1s[scheme] = 2 * p * r / (p + r) if p + r else 0.0
        assert f1s[Scheme.LENIENT] >= f1s[Scheme.STRICT]

    for _ in range(300):
        def random_rels():
            rels = []
            for _ in range(rng.integers(0, 5)):
                s1, s2 = int(rng.integers(0, 6)), int(rng.integers(0, 6))
                rels.append(RelationInstance(
                    Span(s1, s1 + int(rng.integers(1, 3)), int(rng.integers(1, 3))),
                    Span(s2, s2 + int(rng.integers(1, 3)), int(rng.integers(1, 3))),
                    int(rng.integers(1, 3)),
                ))
            return rels

        gold, pred = random_rels(), random_rels()
        for scheme in Scheme:
            tp, _, _ = relation_counts(gold, pred, scheme)

            def compatible(i, j, s=scheme):
                g, p = gold[i], pred[j]
                if g.relation_type != p.relation_type:
                    return False
                if s is Scheme.STRICT:
                    return g.head == p.head and g.tail == p.tail
                return (
                    g.head.overlaps(p.head) and g.head.entity_type == p.head.entity_type
                    and g.tail.overlaps(p.tail) and g.tail.entity_type == p.tail.entity_type
                )

            assert tp == exhaustive_matching(len(gold), len(pred), compatible)

    worst = 0.0
    for n_a in range(1, 9):
        for n_b in range(1, 9):
            a = rng.normal(size=n_a)
            b = rng.normal(loc=float(rng.choice([0.0, 1.0, 2.0])), size=n_b)
            diff = abs(wilcoxon_rank_sum(a, b) - exact_rank_sum_p(a, b))
            worst = max(worst, diff)
            assert diff < 0.05
    _passline(
        9,
        f"1000 span + 300 relation instances match the exhaustive oracle; "
        f"rank-sum p within {worst:.3f} of exact for all sizes <= 8",
    )


# -- 10 ---------------------------------------------------------------------

def test_10_cli_determinism(tmp_path):
    raw = {
        "seed": 5,
        "model": {"vocab_size": 60, "hidden": 16, "rank": 4, "alpha": 8.0},
        "sites": [
            {"site_id": "a", "n_examples": 50, "dirichlet_alpha": 2.0, "noise_rate": 0.1},
            {"site_id": "b", "n_examples": 50, "dirichlet_alpha": 2.0, "token_shift": 2},
        ],
        "federation": {
            "strategy": "influence",
            "rounds": 2,
            "sgd": {"learning_rate": 0.2, "epochs": 1, "batch_size": 16},
        },
        "baselines": ["zero_shot", "fedavg"],
        "validation": {"n_examples": 10},
        "eval": {"test_size": 30, "bootstrap": {"sample_size": 30, "reps": 5}},
    }
    config = tmp_path / "exp.yaml"
    config.write_text(yaml.safe_dump(raw))
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--config", str(config), "--out-dir", str(out_a)]) == 0
    assert main(["run", "--config", str(config), "--out-dir", str(out_b)]) == 0
    results_same = (out_a / "results.csv").read_bytes() == (out_b / "results.csv").read_bytes()
    transcript_same = (
        (out_a / "transcript.json").read_bytes() == (out_b / "transcript.json").read_bytes()
    )
    assert results_same and transcript_same
    _passline(10, "repeated cmd_run is byte-identical for results.csv and transcript.json")
