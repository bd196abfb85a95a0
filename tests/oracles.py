"""Independent brute-force reference implementations.

Everything here recomputes results from scratch (plain loops, math.lgamma,
full enumeration) and never calls into the package's inference code paths,
so these can pin expected values for the fast implementations.
"""

import itertools
import math
import zipfile

import numpy as np


def candidate_interests(user, init):
    """Interests an engagement of ``user`` may take: the prior support, or
    every interest for users with no t=0 history."""
    sup = init.support(user).tolist()
    return sup if sup else list(range(init.num_interests))


def collapsed_log_joint(users, items, z, init):
    """Full Gamma-product collapsed objective, recomputed from scratch.

    User counts = t=0 base + this chunk's assignments; item/interest tables
    are chunk-only. Includes every assignment-independent constant it likes;
    only differences/ratios are ever compared.
    """
    a, b = init.alpha, init.beta
    K, I = init.num_interests, init.num_items
    nik = {}
    nk = [0] * K
    uk = {}
    for u, i, k in zip(users, items, z):
        nik[(i, k)] = nik.get((i, k), 0) + 1
        nk[k] += 1
        uk[(u, k)] = uk.get((u, k), 0) + 1

    lj = 0.0
    for u in sorted(set(users)):
        base = dict(zip(init.support(u).tolist(), init.support_counts(u).tolist()))
        for k in candidate_interests(u, init):
            lj += math.lgamma(a + base.get(k, 0) + uk.get((u, k), 0))
    for k in range(K):
        for i in range(I):
            lj += math.lgamma(b + nik.get((i, k), 0))
        lj -= math.lgamma(I * b + nk[k])
    return lj


def enumerate_posterior(users, items, init):
    """Exact posterior over full assignment vectors by enumeration.

    Returns (assignment tuples, probabilities, marginals) where
    marginals[j][k] = P(z_j = k | data).
    """
    cands = [candidate_interests(u, init) for u in users]
    vectors = list(itertools.product(*cands))
    logps = np.array(
        [collapsed_log_joint(users, items, list(v), init) for v in vectors]
    )
    logps -= logps.max()
    probs = np.exp(logps)
    probs /= probs.sum()
    marginals = [dict.fromkeys(c, 0.0) for c in cands]
    for v, p in zip(vectors, probs):
        for j, k in enumerate(v):
            marginals[j][k] += p
    return vectors, probs, marginals


def conditional_from_enumeration(users, items, z, j, init):
    """p(z_j = k | all other assignments) via ratios of full joints."""
    cands = candidate_interests(users[j], init)
    logs = []
    for k in cands:
        z2 = list(z)
        z2[j] = k
        logs.append(collapsed_log_joint(users, items, z2, init))
    logs = np.array(logs)
    logs -= logs.max()
    p = np.exp(logs)
    return dict(zip(cands, p / p.sum()))


def item_counts(m):
    """{(item, interest): chunk count} of a ``ChunkModel``'s nonzero
    item-interest counts, read once from ``item_table``; look an absent
    pair up as 0 with ``.get``."""
    items, ks, counts = m.item_table()
    return dict(zip(zip(items.tolist(), ks.tolist()), counts.tolist()))


def gibbs_weight(u, i, k, m, init):
    """Unnormalized conditional weight for assigning interest k to an
    engagement of user u on item i, with that engagement already removed
    from ``m``'s tables: (alpha_u(k) + N_uk) * (beta + N_ikt) / (I*beta +
    N_kt), where alpha_u(k) is alpha on the user's t=0 support (on every
    interest for a user without t=0 history) and 0 elsewhere."""
    sup = init.support(u).tolist()
    alpha_mass = init.alpha if (k in sup or not sup) else 0.0
    ks, counts = m.user_counts(u)
    n_uk = dict(zip(ks.tolist(), counts.tolist())).get(k, 0)
    n_ikt = item_counts(m).get((i, k), 0)
    return (alpha_mass + n_uk) * (init.beta + n_ikt) / (m.Ibeta + int(m.n_kt[k]))


def dcg_reference(ranked, truth):
    """Binary-gain DCG with log2(rank+1) discount, 1-indexed ranks."""
    total = 0.0
    for idx, item in enumerate(ranked):
        if item in truth:
            total += 1.0 / math.log2(idx + 2)
    return total


def ndcg_reference(ranked, truth, m):
    ranked = list(ranked)[:m]
    ideal = sum(1.0 / math.log2(r + 2) for r in range(min(len(truth), m)))
    if ideal == 0:
        return 0.0
    return dcg_reference(ranked, truth) / ideal


def recall_reference(ranked, truth, m):
    hit = sum(1 for item in list(ranked)[:m] if item in truth)
    return hit / len(truth)


def mrr_reference(ranked, truth, m):
    for idx, item in enumerate(list(ranked)[:m]):
        if item in truth:
            return 1.0 / (idx + 1)
    return 0.0


def score_reference(ranked, truth, m):
    """(recall, mrr, ndcg) at ``m`` of one ranked list, by the three
    references above."""
    return recall_reference(ranked, truth, m), mrr_reference(ranked, truth, m), ndcg_reference(ranked, truth, m)


def row_sums_add_at(inv, values, n):
    """Per-row sums by the ``np.add.at`` scatter that embedding SGD, k-means
    and ANN item encoding used before their flat ``bincount``."""
    acc = np.zeros((n, values.shape[1]))
    np.add.at(acc, inv, values)
    return acc


def gather_sum_add_at(rows, vecs, n, vidx=None):
    """``mixrec.embeddings.gather_sum`` by the ``np.add.at`` scatter over
    the gathered ``vecs[vidx]``."""
    return row_sums_add_at(rows, vecs if vidx is None else vecs[vidx], n)


def deflated_and_integer_members(path):
    """(the deflated members, the integer-array members) of an ``.npz``, by
    name without ``.npy``."""
    with zipfile.ZipFile(path) as zf, np.load(path) as z:
        deflated = {i.filename[:-4] for i in zf.infolist() if i.compress_type == zipfile.ZIP_DEFLATED}
        integer = {k for k in z.files if z[k].dtype.kind in "iu"}
    return deflated, integer


def aggregate_loop(per_query, queries):
    """The per-query loop ``metrics.aggregate`` ran before its ``cumsum``
    form: ({chunk: (count, means)}, (count, means)), each means an array of
    (recall, mrr, ndcg), every sum a running sum from 0.0 in query order."""
    sums, counts = {}, {}
    total = np.zeros(3)
    for (r, rr, nd), q in zip(per_query, queries):
        v = np.asarray([r, rr, nd])
        sums[q.chunk] = sums.get(q.chunk, np.zeros(3)) + v
        counts[q.chunk] = counts.get(q.chunk, 0) + 1
        total += v
    per_chunk = {c: (counts[c], sums[c] / counts[c]) for c in sorted(sums)}
    return per_chunk, (len(queries), total / len(queries) if queries else np.zeros(3))


def seen_union_loop(slices):
    """Per-user seen items after merging each ``ChunkSlice`` of ``slices``
    in turn, by the per-user ``np.union1d`` loop the backtest's seen
    tracker ran before its one-pass merge: {user: ascending item ids}."""
    seen = {}
    for slc in slices:
        for u, items in slc.iter_users():
            seen[u] = np.union1d(seen.get(u, np.empty(0, dtype=np.int64)), items)
    return seen


def same_bits(a, b):
    """True when two float64 arrays hold the same bytes, so -0.0 differs
    from 0.0 and every last-place rounding counts."""
    a, b = np.ascontiguousarray(a, dtype=np.float64), np.ascontiguousarray(b, dtype=np.float64)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def interest_list(idx, k):
    """Interest k's list in an ``InterestIndex``: its (item ids,
    probabilities) in list order, read from the index's public arrays: the
    counted entries in rank order, then the floor run (every other pool
    position below ``fend[k]``) ascending, each with ``floor[k]``."""
    lo, hi = idx.ptr[k], idx.ptr[k + 1]
    run = np.setdiff1d(np.arange(idx.fend[k]), idx.positions[lo:hi])
    pos = np.concatenate([idx.positions[lo:hi], run]).astype(np.int64)
    probs = np.concatenate([idx.probs[lo:hi], np.full(len(run), idx.floor[k])])
    return idx.pool_items[pos], probs


def padded_lists(m, L):
    """Every interest's (item ids, probabilities) top-L list of a fitted
    ``ChunkModel``, built as ``build_index`` built it before floor runs: per
    interest, its items with a chunk count by (count desc, item asc) at
    (beta + count) / (I*beta + n_k), cut to L, then padded up to L with the
    first pool items without a count (ascending id) at beta / (I*beta +
    n_k); an interest without a count has an empty list."""
    items, ks, counts = m.item_table()
    pool, nk = m.item_pool, m.n_kt.astype(np.float64)
    lists = []
    for k in range(m.K):
        if nk[k] == 0:
            lists.append((np.empty(0, np.int64), np.empty(0)))
            continue
        total = m.Ibeta + nk[k]
        mine = ks == k
        order = np.lexsort((items[mine], -counts[mine]))[:L]
        ids, phi = items[mine][order], (m.beta + counts[mine][order].astype(np.float64)) / total
        free = np.setdiff1d(pool, ids)[: max(L - len(ids), 0)]
        lists.append((np.concatenate([ids, free]), np.concatenate([phi, np.full(len(free), m.beta / total)])))
    return lists


def interest_items(tables, k):
    """Interest k's (items, p(i|k)) in a ``ChunkTables``: its listed items
    and their (beta + count) / (Ibeta + n_k), read from ``kptr``,
    ``items``, ``counts``, ``nk``, ``beta`` and ``Ibeta``."""
    lo, hi = tables.kptr[k], tables.kptr[k + 1]
    total = tables.Ibeta + float(tables.nk[k])
    return tables.items[lo:hi], (tables.beta + tables.counts[lo:hi].astype(np.float64)) / total


def mixture_row(tables, user):
    """``user``'s (interests, weights) in a ``ChunkTables``, read from its
    ``user_ptr``, ``user_k`` and ``user_w``; for the static mixture the
    weights are p(k|u)."""
    lo, hi = tables.user_ptr[user], tables.user_ptr[user + 1]
    return tables.user_k[lo:hi], tables.user_w[lo:hi]


def static_index_reference(edges, item_interest, K, U, L, pool):
    """The static mixture's index over the ascending item ids ``pool`` by
    plain Python, from the train (user, item) pairs ``edges``: per
    interest, its top L train items by (count desc, id asc), restricted to
    the pool, at p(i|k) = n_ik / n_k, with no floor run; per user, the
    interests of their train items ascending at p(k|u) = n_uk / n_u. Gives
    the lists ``ptr``, ``positions``, ``probs``, ``user_ptr``, ``user_k``
    and ``user_w`` by name."""
    n_i, n_k, n_uk, n_u = {}, [0] * K, {}, [0] * U
    for u, i in edges:
        k = item_interest[i]
        n_i[i] = n_i.get(i, 0) + 1
        n_k[k] += 1
        n_uk[u, k] = n_uk.get((u, k), 0) + 1
        n_u[u] += 1
    where = {item: p for p, item in enumerate(pool)}
    got = {name: [] for name in ("positions", "probs", "user_k", "user_w")}
    got["ptr"], got["user_ptr"] = [0], [0]
    for k in range(K):
        for i in sorted((i for i in n_i if item_interest[i] == k), key=lambda i: (-n_i[i], i))[:L]:
            if i in where:
                got["positions"].append(where[i])
                got["probs"].append(n_i[i] / n_k[k])
        got["ptr"].append(len(got["positions"]))
    for u in range(U):
        for k in sorted(k for v, k in n_uk if v == u):
            got["user_k"].append(k)
            got["user_w"].append(n_uk[u, k] / n_u[u])
        got["user_ptr"].append(len(got["user_k"]))
    return got


def combined_counts(m, user):
    """``user``'s (interests, base + chunk counts) in a ``ChunkModel`` fitted
    from the t=0 counts: the user's chunk row, or the t=0 support counts
    for a user absent from the chunk."""
    try:
        return m.user_counts(user)
    except KeyError:
        return m.init.support(user), m.init.support_counts(user)


def ledger_row(counts, init, user):
    """``user``'s counts in the ``UserCounts`` ledger ``counts`` as
    {interest: count}: the warm slots of the user's t=0 support, and any
    cold key ``user * K + interest``, found by a scan of every key."""
    K, lo, hi = init.num_interests, init.support_ptr[user], init.support_ptr[user + 1]
    row = dict(zip(init.support_k[lo:hi].tolist(), counts.warm[lo:hi].tolist()))
    row.update((k % K, c) for k, c in zip(counts.cold_keys.tolist(), counts.cold_counts.tolist()) if k // K == user)
    return row


def chunk_user_total(m, user):
    """The number of ``user``'s engagements in the chunk of ``ChunkModel``
    ``m``, read from its slice."""
    return int(np.count_nonzero(m.slice.users == user))


def export_tables_text(m, path):
    """Sparse-triple dump of a ``ChunkModel``: user/interest, item/interest,
    interest totals and the assignment vector, as tab-separated sections,
    from ``user_counts``, ``item_table`` and ``z``."""
    totals = np.bincount(m.z, minlength=m.K)
    with open(path, "w") as fh:
        fh.write("# section=user_interest u k count\n")
        for u in m.slice.unique_users.tolist():
            ks, counts = m.user_counts(u)
            for k, c in zip(ks.tolist(), counts.tolist()):
                if c:
                    fh.write(f"{u}\t{k}\t{c}\n")
        fh.write("# section=item_interest i k count\n")
        for i, k, c in zip(*(a.tolist() for a in m.item_table())):
            fh.write(f"{i}\t{k}\t{c}\n")
        fh.write("# section=interest k count\n")
        for k, c in enumerate(totals.tolist()):
            if c:
                fh.write(f"{k}\t{c}\n")
        fh.write("# section=assignments j z\n")
        for j, k in enumerate(m.z.tolist()):
            fh.write(f"{j}\t{k}\n")
