"""Acceptance suite: one test per criterion, one PASS line each.

Every test prints a single summary line with the measured numbers on
success; a failed assertion is the FAIL line.
"""

import time

import numpy as np

import oracles
from twobranch import cli, data, evaluation as ev, gradcheck
from twobranch import hard_negatives as hn_mod
from twobranch import loss_mining as lm
from twobranch import network as nw
from twobranch import training
from twobranch.tensor_core import pairwise_distances


def unit_rows(rng, n, d):
    m = rng.normal(size=(n, d))
    return m / np.linalg.norm(m, axis=1, keepdims=True)


def split_by_cluster(syn, cutoff):
    """FeatureSets and graphs for clusters below/at-or-above cutoff."""
    out = []
    for keep in (syn.x_labels < cutoff, syn.x_labels >= cutoff):
        rows_x = np.flatnonzero(keep)
        rows_y = np.flatnonzero(
            (syn.y_labels < cutoff) if keep is not None and keep[rows_x[0]]
            else (syn.y_labels >= cutoff))
        out.append((rows_x, rows_y))
    # recompute cleanly: masks for y follow the same cluster rule
    train_x = np.flatnonzero(syn.x_labels < cutoff)
    train_y = np.flatnonzero(syn.y_labels < cutoff)
    held_x = np.flatnonzero(syn.x_labels >= cutoff)
    held_y = np.flatnonzero(syn.y_labels >= cutoff)
    splits = []
    for rows_x, rows_y in ((train_x, train_y), (held_x, held_y)):
        fx = data.FeatureSet(ids=[syn.x.ids[i] for i in rows_x],
                             features=syn.x.features[rows_x])
        fy = data.FeatureSet(ids=[syn.y.ids[i] for i in rows_y],
                             features=syn.y.features[rows_y])
        keep_x, keep_y = set(fx.ids), set(fy.ids)
        pairs = [(syn.x.ids[xi], syn.y.ids[yi])
                 for xi, yi in syn.graph.pos_pairs
                 if syn.x.ids[xi] in keep_x and syn.y.ids[yi] in keep_y]
        splits.append((fx, fy, data.build_graph(pairs, fx.ids, fy.ids)))
    return splits


def retrieval_r1(params, fx, fy, graph):
    emb_x, _ = nw.forward_branch(params, "x", fx.features, "eval")
    emb_y, _ = nw.forward_branch(params, "y", fy.features, "eval")
    dist = pairwise_distances(emb_x, emb_y)
    report = ev.evaluate_retrieval(dist, graph.y_of_x, graph.x_of_y,
                                   ks=(1,))
    return report.image_to_sentence[1], report.sentence_to_image[1]


def test_criterion_1_gradient_suite():
    start = time.monotonic()
    worst = 0.0
    for seed in range(20):
        checks = gradcheck.run_layer_checks(seed)
        checks.update(gradcheck.run_full_loss_check(seed))
        for name, err in checks.items():
            assert err < 1e-4, f"seed {seed} {name} rel err {err:.3g}"
            worst = max(worst, err)
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    print(f"criterion 1 PASS: 20 seeds, worst rel err {worst:.3g}, "
          f"{elapsed:.1f}s")


def test_criterion_2_mining_oracle():
    cfg_full = lm.LossConfig(margin=0.1, lambda1=2.0, lambda2=0.5,
                             lambda3=0.2, top_k=10 ** 6)
    cfg_two = lm.LossConfig(margin=0.1, lambda1=2.0, lambda2=0.5,
                            lambda3=0.2, top_k=2)
    worst_rel = 0.0
    for case in range(200):
        rng = np.random.default_rng(10_000 + case)
        nx = int(rng.integers(4, 31))
        ny = int(rng.integers(4, 31))
        graph = oracles.random_graph(rng, nx, ny)
        emb_x = unit_rows(rng, nx, 8)
        emb_y = unit_rows(rng, ny, 8)

        trip = lm.mine_triplets(emb_x, emb_y, graph, cfg_full)
        mined = lm.hinge_loss(emb_x, emb_y, trip.dists, trip, cfg_full).loss
        brute = oracles.brute_force_loss(emb_x, emb_y, graph, cfg_full)
        rel = abs(mined - brute) / max(1.0, abs(brute))
        worst_rel = max(worst_rel, rel)
        assert rel <= 1e-9, f"case {case}: mined {mined} brute {brute}"

        trip = lm.mine_triplets(emb_x, emb_y, graph, cfg_two)
        full = oracles.enumerate_family_triplets(emb_x, emb_y, graph,
                                                 cfg_two.margin, 10 ** 6)
        for name in lm.FAMILY_NAMES:
            got = [tuple(r) for r in getattr(trip, name).tolist()]
            by_pair = {}
            for a, p, n, v in full[name]:
                by_pair.setdefault((a, p), []).append((n, v))
            want = []
            for key in sorted(by_pair):
                ranked = sorted(by_pair[key], key=lambda t: (-t[1], t[0]))
                want.extend((key[0], key[1], n) for n, _ in ranked[:2])
            assert sorted(got) == sorted(want), f"case {case} {name}"
    print(f"criterion 2 PASS: 200 batches, worst loss rel err "
          f"{worst_rel:.3g}, top-2 sets exact")


def test_criterion_3_synthetic_retrieval():
    start = time.monotonic()
    seed = 0
    syn = data.gen_synthetic(40, 1, 5, 64, 48, 0.05, seed=seed)
    (train_fx, train_fy, train_graph), (held_fx, held_fy, held_graph) = \
        split_by_cluster(syn, 32)
    params = nw.init_params(nw.BranchSpec(64, 32, 16, 0.5),
                            nw.BranchSpec(48, 32, 16, 0.5), seed=seed)
    opt = nw.OptimizerState(lr0=0.1, lr=0.1, momentum=0.9,
                            weight_decay=0.0005)
    training.train(params, opt, train_graph, train_fx, train_fy,
                   lm.LossConfig(), 200, 32, True,
                   np.random.default_rng(seed))
    train_r1 = retrieval_r1(params, train_fx, train_fy, train_graph)
    held_r1 = retrieval_r1(params, held_fx, held_fy, held_graph)
    elapsed = time.monotonic() - start
    assert train_r1[0] >= 90.0 and train_r1[1] >= 90.0, train_r1
    assert held_r1[0] >= 70.0 and held_r1[1] >= 70.0, held_r1
    assert elapsed < 120.0
    print(f"criterion 3 PASS: train R@1 {train_r1[0]:.1f}/{train_r1[1]:.1f},"
          f" held-out R@1 {held_r1[0]:.1f}/{held_r1[1]:.1f}, {elapsed:.1f}s")


def test_criterion_4_structure_term_effect():
    wins = 0
    results = []
    for seed in range(5):
        syn = data.gen_synthetic(32, 1, 5, 64, 48, 0.05, seed=seed)
        values = {}
        for lam3 in (0.2, 0.0):
            params = nw.init_params(nw.BranchSpec(64, 32, 16, 0.5),
                                    nw.BranchSpec(48, 32, 16, 0.5),
                                    seed=seed)
            opt = nw.OptimizerState(lr0=0.1, lr=0.1, momentum=0.9,
                                    weight_decay=0.0005)
            training.train(params, opt, syn.graph, syn.x, syn.y,
                           lm.LossConfig(lambda3=lam3), 200, 32, True,
                           np.random.default_rng(seed))
            emb_y, _ = nw.forward_branch(params, "y", syn.y.features,
                                         "eval")
            values[lam3] = oracles.mean_neighborhood_distance(
                emb_y, oracles.dataset_neighbors(syn.graph)[1])
        results.append((values[0.2], values[0.0]))
        if values[0.2] <= values[0.0]:
            wins += 1
    assert wins >= 3, results
    shown = ", ".join(f"{a:.3f}<={b:.3f}" for a, b in results)
    print(f"criterion 4 PASS: {wins}/5 seeds with structure term tighter "
          f"({shown})")


def test_criterion_5_loss_term_algebra():
    for case in range(20):
        rng = np.random.default_rng(500 + case)
        nx = int(rng.integers(5, 20))
        ny = int(rng.integers(5, 20))
        graph = oracles.random_graph(rng, nx, ny)
        emb_x = unit_rows(rng, nx, 6)
        emb_y = unit_rows(rng, ny, 6)

        cfg_on = lm.LossConfig(lambda1=2.0, lambda2=0.5, lambda3=0.2)
        cfg_off = lm.LossConfig(lambda1=2.0, lambda2=0.0, lambda3=0.0)
        trip_on = lm.mine_triplets(emb_x, emb_y, graph, cfg_on)
        res_on = lm.hinge_loss(emb_x, emb_y, trip_on.dists, trip_on, cfg_on)
        trip_off = lm.mine_triplets(emb_x, emb_y, graph, cfg_off)
        res_off = lm.hinge_loss(emb_x, emb_y, trip_off.dists, trip_off,
                                cfg_off)
        assert res_on.loss >= res_off.loss

        sums = res_on.family_sums
        recombined = (sums["image_to_sentence"]
                      + 2.0 * sums["sentence_to_image"]
                      + 0.5 * sums["image_structure"]
                      + 0.2 * sums["sentence_structure"])
        assert abs(res_on.loss - recombined) < 1e-12

        cfg_l4 = lm.LossConfig(lambda1=4.0, lambda2=0.5, lambda3=0.2)
        res_l4 = lm.hinge_loss(emb_x, emb_y, trip_on.dists, trip_on, cfg_l4)
        assert res_l4.family_sums == sums
        assert abs((res_l4.loss - res_on.loss)
                   - 2.0 * sums["sentence_to_image"]) < 1e-12
    print("criterion 5 PASS: loss ordering, decomposition, and lambda1 "
          "scaling exact on 20 fixtures")


def test_criterion_6_metric_oracles():
    rng = np.random.default_rng(77)

    for _ in range(100):
        nq = int(rng.integers(2, 15))
        nc = int(rng.integers(5, 40))
        dist = rng.random((nq, nc))
        pos = [rng.choice(nc, size=int(rng.integers(1, 4)),
                          replace=False).tolist() for _ in range(nq)]
        k = int(rng.integers(1, nc + 1))
        assert oracles.recall_at_k(dist, pos, k) == \
            oracles.naive_recall_at_k(dist, pos, k)

    for _ in range(100):
        vals = rng.uniform(0, 50, size=8)
        a = (vals[0], vals[1], vals[0] + 1 + vals[2], vals[1] + 1 + vals[3])
        b = (vals[4], vals[5], vals[4] + 1 + vals[6], vals[5] + 1 + vals[7])
        assert ev.box_iou([a], [b])[0, 0] == oracles.naive_iou(a, b)

    for _ in range(100):
        n = int(rng.integers(2, 26))
        boxes = np.zeros((n, 4))
        boxes[:, 0] = rng.uniform(0, 60, size=n)
        boxes[:, 1] = rng.uniform(0, 60, size=n)
        boxes[:, 2] = boxes[:, 0] + rng.uniform(5, 40, size=n)
        boxes[:, 3] = boxes[:, 1] + rng.uniform(5, 40, size=n)
        scores = rng.random(n)
        thresh = float(rng.uniform(0.2, 0.6))
        rows = [("im", "P", "p0") + tuple(b) + (i,)
                for i, b in enumerate(boxes)]
        corpus = oracles.load_corpus(
            rows, data.FeatureSet(ids=["p0"], features=np.zeros((1, 2))),
            data.FeatureSet(ids=[f"r{i}" for i in range(n)],
                            features=np.zeros((n, 2))))
        kept, _ = ev._survivors(corpus, scores, thresh, 0.5)
        assert sorted(np.flatnonzero(kept).tolist(),
                      key=lambda i: (scores[i], i)) == \
            oracles.naive_nms(boxes, (-scores).tolist(), thresh)

    worst_ap = 0.0
    for case in range(100):
        case_rng = np.random.default_rng(9_000 + case)
        rows = []
        dists = []
        feat = 0
        entries_by_phrase = {}
        for qi in range(int(case_rng.integers(2, 5))):
            phrase = f"p{int(case_rng.integers(2))}"
            image = f"im_{qi}"
            gt = (0.0, 0.0, 10.0, 10.0)
            rows.append((image, "G", phrase) + gt + (None,))
            n_props = int(case_rng.integers(2, 6))
            hit_slot = int(case_rng.integers(n_props))
            vec = []
            for p in range(n_props):
                if p == hit_slot:
                    box = gt
                else:
                    offset = 100.0 * (qi + 1) + 20.0 * p
                    box = (offset, 0.0, offset + 10.0, 10.0)
                rows.append((image, "P", phrase)
                            + tuple(map(float, box)) + (feat,))
                vec.append(float(case_rng.random()))
                entries_by_phrase.setdefault(phrase, []).append(
                    (vec[-1], p == hit_slot))
                feat += 1
            dists.extend(vec)
        phrases = data.FeatureSet(ids=["p0", "p1"],
                                  features=np.zeros((2, 2)))
        regions = data.FeatureSet(ids=[f"r{i}" for i in range(feat)],
                                  features=np.zeros((feat, 2)))
        corpus = oracles.load_corpus(rows, phrases, regions)
        map_value, per_phrase, _ = ev.phrase_map(corpus, np.array(dists))
        want_all = []
        for phrase, entries in entries_by_phrase.items():
            flags = [f for _, f in sorted(entries)]
            want = oracles.naive_average_precision(flags)
            got = per_phrase[phrase]
            worst_ap = max(worst_ap, abs(got - want))
            assert abs(got - want) < 1e-12
            want_all.append(want)
        assert abs(map_value - np.mean(want_all)) < 1e-12
    print(f"criterion 6 PASS: 100 fixtures per metric, recall/iou/nms "
          f"exact, AP worst |err| {worst_ap:.2e}")


def test_criterion_7_weighted_endpoints():
    rng = np.random.default_rng(21)
    n_img, n_sent = 6, 9
    d_global = rng.random((n_img, n_sent))
    phrase_emb = unit_rows(rng, 7, 4)
    region_emb = unit_rows(rng, 12, 4)
    image_ids = [f"im_{i}" for i in range(n_img)]
    region_rows = {f"im_{i}": sorted(
        rng.choice(12, size=int(rng.integers(2, 5)),
                   replace=False).tolist()) for i in range(n_img)}
    phrase_rows = [sorted(rng.choice(
        7, size=int(rng.integers(0, 3)), replace=False).tolist())
        for _ in range(n_sent)]
    args = (d_global, phrase_emb, region_emb, region_rows, image_ids,
            phrase_rows)

    fused0 = ev.fused_distance_matrix(*args, alpha=0.0)
    assert np.array_equal(fused0, d_global)
    by_x = [[int(rng.integers(n_sent))] for _ in range(n_img)]
    by_y = [[int(rng.integers(n_img))] for _ in range(n_sent)]
    by_x, by_y = oracles.adjacency(by_x), oracles.adjacency(by_y)
    rep0 = ev.evaluate_retrieval(fused0, by_x, by_y)
    rep_g = ev.evaluate_retrieval(d_global, by_x, by_y)
    assert rep0 == rep_g

    fused1 = ev.fused_distance_matrix(*args, alpha=1.0)
    reference = d_global.copy()
    for i in range(n_img):
        mins = pairwise_distances(
            phrase_emb,
            region_emb[np.asarray(region_rows[image_ids[i]])]).min(axis=1)
        for j in range(n_sent):
            if phrase_rows[j]:
                reference[i, j] = mins[np.asarray(phrase_rows[j])].mean()
    assert np.array_equal(fused1, reference)
    for j in range(n_sent):
        assert np.array_equal(np.argsort(fused1[:, j], kind="stable"),
                              np.argsort(reference[:, j], kind="stable"))

    for alpha in (0.3, 0.7):
        fused = ev.fused_distance_matrix(*args, alpha=alpha)
        want = (1.0 - alpha) * fused0 + alpha * fused1
        assert np.allclose(fused, want, rtol=0.0, atol=1e-12)
    print("criterion 7 PASS: alpha endpoints bitwise, affine at "
          "alpha in {0.3, 0.7}")


def test_criterion_8_hard_negative_pipeline():
    gains = []
    total_checked = 0
    for seed in range(5):
        d = data.gen_localization(16, 8, 32, 24, seed=seed,
                                  background_per_image=8,
                                  bg_offset_lo=0.03, bg_offset_hi=0.20)
        graph = data.build_graph(d.pairs, d.regions.ids, d.phrases.ids)
        params = nw.init_params(nw.BranchSpec(32, 24, 16, 0.5),
                                nw.BranchSpec(24, 24, 16, 0.5), seed=seed)
        opt = nw.OptimizerState(lr0=0.1, lr=0.1, momentum=0.9,
                                weight_decay=0.0005)
        training.train(params, opt, graph, d.regions, d.phrases,
                       lm.LossConfig(), 30, 16, False,
                       np.random.default_rng(seed))
        corpus = oracles.load_corpus(d.corpus_rows, d.phrases, d.regions)

        def r1(model):
            region_emb, _ = nw.forward_branch(model, "x",
                                              d.regions.features, "eval")
            phrase_emb, _ = nw.forward_branch(model, "y",
                                              d.phrases.features, "eval")
            dists = ev.query_distances(corpus, phrase_emb, region_emb)
            return ev.localization_recall_at_k(corpus, dists, 1)

        pre = r1(params)
        region_emb, _ = nw.forward_branch(params, "x", d.regions.features,
                                          "eval")
        phrase_emb, _ = nw.forward_branch(params, "y", d.phrases.features,
                                          "eval")
        hn, _ = hn_mod.mine_hard_negatives(corpus, phrase_emb, region_emb,
                                           cap=50)
        all_queries = oracles.corpus_queries(d.corpus_rows, d.phrases,
                                             d.regions)
        for phrase_id, entries in hn.by_phrase.items():
            queries = oracles.queries_of_phrase(all_queries, phrase_id)
            anchor = phrase_emb[queries[0].phrase_row]
            gt_rows = [int(r) for q in queries for r in q.gt_rows
                       if int(r) >= 0]
            threshold = min(
                float(np.linalg.norm(region_emb[g] - anchor))
                for g in gt_rows)
            for row, dist in entries:
                recomputed = float(np.linalg.norm(region_emb[row] - anchor))
                assert abs(dist - recomputed) < 1e-9
                assert recomputed < threshold
                owner = [q for q in queries
                         if row in q.proposal_rows.tolist()]
                assert len(owner) == 1
                q = owner[0]
                p = q.proposal_rows.tolist().index(row)
                best = ev.box_iou(q.proposal_boxes[p],
                                  q.gt_boxes).max()
                assert best < 0.5
                total_checked += 1

        hn_mod.fine_tune(params, opt, graph, d.regions, d.phrases, hn,
                         lm.LossConfig(lambda2=0.0, lambda3=0.0), 5, 16,
                         False, np.random.default_rng(seed + 1000),
                         negatives_per_anchor=20)
        post = r1(params)
        gains.append(post - pre)
    wins = sum(1 for g in gains if g >= 5.0)
    assert wins >= 3, gains
    shown = ", ".join(f"{g:+.1f}" for g in gains)
    print(f"criterion 8 PASS: R@1 gains {shown} points, {wins}/5 seeds "
          f">= +5, {total_checked} mined negatives re-verified")


def test_criterion_9_determinism_and_persistence(tmp_path):
    out = tmp_path / "dataset"
    assert cli.main(["gen-synthetic", "--out-dir", str(out),
                     "--clusters", "6", "--images-per-cluster", "2",
                     "--sents-per-image", "3", "--dim-x", "12",
                     "--dim-y", "10", "--seed", "0"]) == 0
    args = ["train",
            "--features-x", str(out / "x.feat"),
            "--features-y", str(out / "y.feat"),
            "--pairs", str(out / "pairs.tsv"),
            "--checkpoint-out", str(tmp_path / "model.ckpt"),
            "--train-csv", str(tmp_path / "train.csv"),
            "--x-hidden-dim", "16", "--y-hidden-dim", "16",
            "--embed-dim", "8", "--epochs", "6", "--batch-pairs", "6",
            "--seed", "0"]
    assert cli.main(args) == 0
    csv_first = (tmp_path / "train.csv").read_bytes()
    ckpt_first = (tmp_path / "model.ckpt").read_bytes()
    assert cli.main(args) == 0
    assert (tmp_path / "train.csv").read_bytes() == csv_first
    assert (tmp_path / "model.ckpt").read_bytes() == ckpt_first

    fx = data.load_feature_file(str(out / "x.feat"))
    fy = data.load_feature_file(str(out / "y.feat"))
    graph = data.build_graph(data.load_pair_file(str(out / "pairs.tsv")),
                             fx.ids, fy.ids)
    params, _ = nw.load_checkpoint(str(tmp_path / "model.ckpt"))
    emb_x, _ = nw.forward_branch(params, "x", fx.features, "eval")
    emb_y, _ = nw.forward_branch(params, "y", fy.features, "eval")
    dist_a = pairwise_distances(emb_x, emb_y)
    report_a = ev.evaluate_retrieval(dist_a, graph.y_of_x, graph.x_of_y)

    params2, _ = nw.load_checkpoint(str(tmp_path / "model.ckpt"))
    emb_x2, _ = nw.forward_branch(params2, "x", fx.features, "eval")
    emb_y2, _ = nw.forward_branch(params2, "y", fy.features, "eval")
    dist_b = pairwise_distances(emb_x2, emb_y2)
    report_b = ev.evaluate_retrieval(dist_b, graph.y_of_x, graph.x_of_y)
    assert np.array_equal(dist_a, dist_b)
    assert report_a == report_b
    print("criterion 9 PASS: CSV and checkpoint bytes identical across "
          "runs, reload reproduces metrics bitwise")
