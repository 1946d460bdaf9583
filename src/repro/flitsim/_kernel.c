/* The flat engine's cycle kernel.
 *
 * _kernel.py compiles this file through cffi as one translation unit
 * ('#include "_kernel.c"'), over the very arrays of FlatSimulator: the
 * cycle protocol of repro/flitsim/engine.py, bit-identical to the numpy
 * path and the reference engine.  Entry points (_kernel.h):
 *
 * kcycles   whole cycles, every cycle a kernel-backed simulator runs:
 *           injection (the Bernoulli draw and destination pick, or the
 *           closed loop's retransmit and ready queues), kselect's body,
 *           packet-slot fill, kinject, kfeed and kroute, the measured
 *           tails' latency samples and the closed loop's completion
 *           commit.  In fault mode the survival masks filter winners,
 *           destinations and messages; a head flit whose first hop is
 *           dead drops at feed without taking the injection credit or a
 *           pool row, a granted flit whose next output is dead evaporates
 *           on the wire without taking the upstream credit, and a lost
 *           tail's message joins the retransmit queue.  It returns early,
 *           at a cycle boundary, when Python must grow a pool, the
 *           scratch or the sample columns, or the workload completed.
 *           Host half: kspan.py.
 * kselect   the batch protocol of policy.select_routes for the stock
 *           policies, on the caller's Generator bit stream.  The numpy
 *           bodies (routing/policies.py, the dest_routers of traffic.py)
 *           define the stream and this file mirrors them literally:
 *           a change to either side is a change to both.  Host half:
 *           kselect.py.
 * kdraws, kdoubles   the C half of the load-time draw self-test.
 *
 * Arbitration is the reference engine's decide loop (routers ascending,
 * link outputs then ejection, circular round-robin, decide all, then
 * apply), driven by occupancy at two levels.  busy_rows holds one bit
 * per (router, out) row, set exactly while the row's backlog (the exact
 * sum of its queue lengths) is positive; the decide loop walks its set
 * bits ascending, so an idle row costs nothing and keeps its round-robin
 * pointer.  Inside a row, row_mask (bit `in` set exactly while VOQ
 * (router, in, out) holds a flit) is walked circularly from rr by
 * count-trailing-zeros: the non-empty inputs in the order a scan of
 * every input visits them, for work proportional to flits in flight.
 * Both masks are kernel-only: enqueue sets a bit on a queue's or row's
 * empty -> non-empty edge, apply clears it, and FlatSimulator._drop_vq
 * clears it with a dropped queue.
 *
 * A VOQ is one int32 record at (r * O + out) * I + in, its tail's pool
 * row plus one (0: empty).  Chains are circular, the tail's next being
 * the head, so the one record reaches both ends.  Source FIFOs chain
 * packet slots through pkt_next; kfeed makes each flit (takes its pool
 * row, stamps it ready) as it enters its injection VOQ, so the pool
 * holds only buffered flits plus one row per endpoint.  kinject resolves
 * every hop's output port once per packet into route_port (OE where the
 * packet ejects), so feed and apply never search a neighbor row.  Every
 * record is sized to its ceiling (_kernel.h); FlatSimulator fails loudly
 * before one would wrap.
 */

#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#include "_kernel.h"

/* Account one lost flit, number seq of packet slot pid (fault mode):
 * bump the flit-drop counter, flag the packet damaged, count a lost tail
 * and queue its message for retransmission (drop order), and recycle the
 * packet slot once its outstanding-flit count hits zero.  A flit lost at
 * feed never had a pool row; one lost on the wire hands its row back
 * itself. */
static void lose_flit(SimState *st, int64_t pid, int64_t seq)
{
    st->fcnt[0] += 1;
    st->pkt_damaged[pid] = 1;
    if (seq == st->ps - 1) {
        st->fcnt[1] += 1;
        if (st->rt_queue)
            st->rt_queue[(*st->rt_len)++] = st->pkt_msg[pid];
    }
    if (--st->pkt_live[pid] == 0)
        st->pkt_free[(*st->pkt_free_top)++] = (int32_t)pid;
}

/* First index in sorted a[lo..hi) whose value is >= key (searchsorted). */
static int64_t lower_bound(const int64_t *a, int64_t lo, int64_t hi,
                           int64_t key)
{
    while (lo < hi) {
        int64_t mid = lo + (hi - lo) / 2;
        if (a[mid] < key)
            lo = mid + 1;
        else
            hi = mid;
    }
    return lo;
}

/* Output port of router r toward adjacent vertex v: the offset of v in
 * r's sorted CSR neighbor slice (binary search over adj_indices).  The
 * CSR port map replaces the former dense n*n port matrix; callers only
 * pass genuinely adjacent (r, v) pairs.  The cycle path never searches:
 * kinject resolves every hop's port once per packet (route_port). */
static int64_t port_of(const SimState *st, int64_t r, int64_t v)
{
    int64_t lo = st->adj_indptr[r];
    return lower_bound(st->adj_indices, lo, st->adj_indptr[r + 1], v) - lo;
}

/* Words per row of row_mask. */
static int64_t mask_words(const SimState *st)
{
    return (st->I + 63) >> 6;
}

/* Index of the lowest set bit of x != 0. */
static int ctz64(uint64_t x)
{
#if defined(__GNUC__) || defined(__clang__)
    return __builtin_ctzll(x);
#else
    int k = 0;
    while (!(x & 1)) {
        x >>= 1;
        k++;
    }
    return k;
#endif
}

/* Append flit f to VOQ (router, in, out), row = router*O + out: its
 * record is voq[row*I + in], the tail's pool row plus one (0: empty),
 * and its chain is circular, the tail's next being the head.  The
 * first flit links to itself; a later one goes between the tail and
 * the head and becomes the tail. */
static void enqueue(SimState *st, int64_t row, int64_t in, int64_t f)
{
    int32_t *q = st->voq + row * st->I + in;
    Flit *fl = st->pool + f;
    if (*q == 0) {
        fl->next = (int32_t)f;
        st->row_mask[row * mask_words(st) + (in >> 6)] |=
            (uint64_t)1 << (in & 63);
    } else {
        Flit *tail = st->pool + (*q - 1);
        fl->next = tail->next;
        tail->next = (int32_t)f;
    }
    *q = (int32_t)(f + 1);
    if (st->backlog[row]++ == 0)
        st->busy_rows[row >> 6] |= (uint64_t)1 << (row & 63);
}

/* The route_port row of packet slot pid, from its route row: the port
 * out of route[h] toward route[h + 1], or OE where the packet ejects —
 * at hop 0 only for a one-router route, later at the first router that
 * is its destination (a Valiant leg through dst ejects there). */
static void fill_ports(SimState *st, int64_t pid)
{
    const int32_t *route = st->route_buf + pid * st->stride;
    int16_t *port = st->route_port + pid * st->stride;
    int64_t len = st->pkt_len[pid], dst = st->pkt_dst[pid];
    port[0] = (int16_t)(len == 1 ? st->OE : port_of(st, route[0], route[1]));
    for (int64_t h = 1; h < len; h++)
        port[h] = (int16_t)(route[h] == dst
                            ? st->OE : port_of(st, route[h], route[h + 1]));
}

/* Protocol step 1 plumbing: output ports and FIFO places for k new
 * packets (RNG, routing, and the packet table are written by the
 * caller).  Packet j, in slot slots[j], joins the tail of endpoint
 * eps[j]'s FIFO; repeats are fine — sequential appends keep per-endpoint
 * FIFO order, which is all the protocol observes — so the same call
 * serves Bernoulli winners (distinct) and workload batches (several
 * packets may land on one endpoint).  No flit exists yet: kfeed makes
 * each as it leaves the FIFO. */
static void kinject(SimState *st, int64_t k, const int32_t *slots,
                    const int32_t *eps)
{
    for (int64_t j = 0; j < k; j++) {
        int64_t e = eps[j], pid = slots[j];
        fill_ports(st, pid);
        st->pkt_next[pid] = -1;
        if (st->src_tail[e] >= 0)
            st->pkt_next[st->src_tail[e]] = (int32_t)pid;
        else
            st->src_head[e] = pid;
        st->src_tail[e] = pid;
    }
}

/* Protocol step 2: one flit per endpoint from FIFO to injection VOQ —
 * flit src_seq[e] of the head packet, which takes its pool row here, as
 * it enters the buffer; its last flit pops the packet.  Fault mode: a
 * head flit whose first-hop output is dead is lost before entering the
 * buffer (endpoint-ascending drop order), spending the endpoint's
 * one-flit feed slot without consuming the credit or a row. */
static void kfeed(SimState *st, int64_t now)
{
    int64_t O = st->O;
    int64_t fm = st->fault_mode;
    for (int64_t e = 0; e < st->E; e++) {
        int64_t pid = st->src_head[e];
        if (pid < 0)
            continue;
        /* Outside fault mode nothing precedes the credit check, so a
         * blocked endpoint skips the port read; under faults the
         * doomed-head drop below is decided first and needs `out`. */
        if (!fm && st->ep_credit[e] <= 0)
            continue;
        int64_t r = st->ep_router[e];
        int64_t out = st->route_port[pid * st->stride];
        int dead = fm && st->dead_row[r * O + out];
        if (!dead && st->ep_credit[e] <= 0)
            continue;
        int64_t seq = st->src_seq[e];
        if (seq + 1 < st->ps) {
            st->src_seq[e] = seq + 1;
        } else {
            st->src_seq[e] = 0;
            st->src_head[e] = st->pkt_next[pid];
            if (st->src_head[e] < 0)
                st->src_tail[e] = -1;
        }
        if (dead) {
            lose_flit(st, pid, seq);
            continue;
        }
        int32_t f = st->free_stack[--(*st->free_top)];
        Flit *fl = st->pool + f;
        fl->pid = (int32_t)pid;
        fl->ready = (int32_t)now;
        fl->hop = 0;
        fl->seq = (int16_t)seq;
        st->ep_credit[e] -= 1;
        enqueue(st, r * O + out, st->ep_inport[e], f);
    }
}

/* Arbitrate one (router, out) row that holds flits: a circular scan of
 * its P input ports from the rr pointer, up to `limit` grants appended
 * at grants[ng...]; returns the new grant count.  The scan visits the
 * set bits of the row's occupancy mask only — the non-empty inputs — in
 * circular order [ptr, P) then [0, ptr), as one pass over MW + 1 words:
 * the bits >= ptr of ptr's word, the words after it, the words before
 * it (wrapping), then the bits < ptr of ptr's word.  No bit at or above
 * P is ever set, so no visit needs an upper bound. */
static int64_t arbitrate(SimState *st, int64_t r, int64_t out, int64_t now,
                         int64_t ng)
{
    int64_t I = st->I, O = st->O, OE = st->OE, V = st->V;
    int64_t MW = mask_words(st), P = st->ports[r];
    int64_t row = r * O + out;
    int64_t limit = 1;
    if (out == OE && st->conc[r] > 1)
        limit = st->conc[r];
    const uint64_t *mask = st->row_mask + row * MW;
    /* The row's VOQs (r, in, out), in = 0, 1, ...: consecutive records. */
    const int32_t *voq = st->voq + row * I;
    const int16_t *credits = st->credits + (r * st->Dp + out) * V;
    int64_t ptr = st->rr[row];
    int64_t granted = 0, last = -1;
    int64_t w = ptr >> 6, left = MW;    /* word visits after this one */
    uint64_t upper = ~(uint64_t)0 << (ptr & 63);
    uint64_t bits = mask[w] & upper;
    for (;;) {
        if (!bits) {
            if (left-- == 0)
                break;
            if (++w == MW)
                w = 0;
            bits = left ? mask[w] : mask[w] & ~upper;
            continue;
        }
        int64_t in = (w << 6) + ctz64(bits);
        bits &= bits - 1;
        int32_t f = st->pool[voq[in] - 1].next;     /* the tail's next */
        const Flit *fl = st->pool + f;
        if (fl->ready > now)
            continue;
        if (out != OE) {
            int64_t dvc = fl->hop;
            if (dvc > V - 1)
                dvc = V - 1;
            if (credits[dvc] <= 0)
                continue;
        }
        Grant *g = st->grants + ng++;
        g->f = f;
        g->r = (int32_t)r;
        g->in = (int32_t)in;
        g->out = (int32_t)out;
        last = in;
        if (++granted == limit)
            break;
    }
    /* last < P: the pointer wraps to 0 past the last input. */
    if (last >= 0)
        st->rr[row] = (int32_t)(last + 1 == P ? 0 : last + 1);
    return ng;
}

/* Protocol step 3: decide every grant from current state, then apply.
 * Returns the number of completed (tail-flit) packets written to
 * st->tail_pids; *n_ejected counts every ejected flit. */
static int64_t kroute(SimState *st, int64_t now, int64_t *n_ejected)
{
    int64_t n = st->n, I = st->I, O = st->O, OE = st->OE;
    int64_t Dp = st->Dp, V = st->V, MW = mask_words(st);
    int64_t ng = 0;

    /* Decide: routers ascending, link outputs ascending, eject last —
     * ascending row = r * O + out, ejection being column OE = O - 1.
     * An empty row can grant nothing and leaves rr untouched, so only
     * the rows whose busy_rows bit is set are arbitrated. */
    int64_t r = 0, base = 0;
    for (int64_t w = 0; w < (n * O + 63) >> 6; w++) {
        uint64_t bits = st->busy_rows[w];
        while (bits) {
            int64_t row = (w << 6) + ctz64(bits);
            bits &= bits - 1;
            while (row >= base + O) {
                r++;
                base += O;
            }
            ng = arbitrate(st, r, row - base, now, ng);
        }
    }

    /* Apply: a grant carries its VOQ's coordinates, and the next
     * router's output port is the packet's route_port at the new hop. */
    int64_t n_tail = 0, n_ej = 0;
    int64_t fm = st->fault_mode;
    for (int64_t i = 0; i < ng; i++) {
        const Grant *g = st->grants + i;
        int64_t f = g->f, r = g->r, in = g->in, out = g->out;
        int64_t row = r * O + out;
        Flit *fl = st->pool + f;
        /* Pop the head f: the last flit empties the queue, any other
         * is unlinked from behind the tail. */
        int32_t *q = st->voq + row * I + in;
        if (*q - 1 == f) {
            *q = 0;
            st->row_mask[row * MW + (in >> 6)] &=
                ~((uint64_t)1 << (in & 63));
        } else {
            st->pool[*q - 1].next = fl->next;
        }
        if (--st->backlog[row] == 0)
            st->busy_rows[row >> 6] &= ~((uint64_t)1 << (row & 63));

        int64_t pid = fl->pid;
        int64_t hop = fl->hop;
        if (in < st->deg[r]) {
            /* Link input `in` is fed by exactly one upstream port. */
            int64_t up = st->nbr[r * Dp + in];
            int64_t upp = st->rev[r * Dp + in];
            int64_t vc = hop - 1;
            if (vc > V - 1)
                vc = V - 1;
            st->credits[(up * Dp + upp) * V + vc] += 1;
        } else {
            st->ep_credit[st->ep_off[r] + in - st->deg[r]] += 1;
        }

        if (out == OE) {
            n_ej++;
            if (fl->seq == st->ps - 1)
                st->tail_pids[n_tail++] = (int32_t)pid;
            st->free_stack[(*st->free_top)++] = (int32_t)f;
            /* Slot recycling: tail order when nothing can drop; by
             * outstanding-flit count under faults (drops retire
             * packets out of tail order).  The caller reads pkt_* for
             * completed pids before any slot can be reallocated (next
             * injection). */
            if (fm) {
                if (--st->pkt_live[pid] == 0)
                    st->pkt_free[(*st->pkt_free_top)++] = (int32_t)pid;
            } else if (fl->seq == st->ps - 1) {
                st->pkt_free[(*st->pkt_free_top)++] = (int32_t)pid;
            }
        } else {
            int64_t nxt = st->nbr[r * Dp + out];
            int64_t in2 = st->rev[r * Dp + out];
            int64_t out2 = st->route_port[pid * st->stride + hop + 1];
            /* Telemetry counts at grant time, before the fault doom
             * check below — the reference hook's accounting point. */
            if (st->link_flits)
                st->link_flits[r * Dp + out] += 1;
            if (fm && st->dead_row[nxt * O + out2]) {
                /* Dead output at the next router: the flit evaporates
                 * on the wire, in grant order, and the credit toward
                 * (r, out) is never consumed. */
                lose_flit(st, pid, fl->seq);
                st->free_stack[(*st->free_top)++] = (int32_t)f;
                continue;
            }
            int64_t dvc = hop;
            if (dvc > V - 1)
                dvc = V - 1;
            st->credits[(r * Dp + out) * V + dvc] -= 1;
            fl->hop = (int16_t)(hop + 1);
            fl->ready = (int32_t)(now + st->hop_latency);
            enqueue(st, nxt * O + out2, in2, f);
        }
    }
    *n_ejected = n_ej;
    return n_tail;
}

/* ------------------------------------------------------------------
 * Route selection.  `policy.select_routes` (routing/policies.py) defines
 * each policy's RNG-consumption protocol; everything below mirrors those
 * numpy bodies draw for draw, in the order numpy makes them.
 * ------------------------------------------------------------------ */

/* Generator.integers(bound) for 1 <= bound < 2**32: bound 1 draws
 * nothing, anything else is numpy's 32-bit Lemire rejection
 * (buffered_bounded_lemire_uint32) on the caller's own bit stream. */
static int64_t draw(bitgen_t *bg, int64_t bound)
{
    if (bound <= 1)
        return 0;
    uint32_t rng = (uint32_t)(bound - 1), rng_excl = rng + 1;
    uint64_t m = (uint64_t)bg->next_uint32(bg->state) * rng_excl;
    uint32_t leftover = (uint32_t)m;
    if (leftover < rng_excl) {
        uint32_t threshold = (UINT32_MAX - rng) % rng_excl;
        while (leftover < threshold) {
            m = (uint64_t)bg->next_uint32(bg->state) * rng_excl;
            leftover = (uint32_t)m;
        }
    }
    return (int64_t)(m >> 32);
}

/* The load-time self-test's C half: out[i] = integers(bounds[i]), and
 * Generator.random(k) as the Bernoulli draw of kcycles makes it. */
void kdraws(bitgen_t *bg, int64_t k, const int64_t *bounds, int64_t *out)
{
    for (int64_t i = 0; i < k; i++)
        out[i] = draw(bg, bounds[i]);
}

void kdoubles(bitgen_t *bg, int64_t k, double *out)
{
    for (int64_t i = 0; i < k; i++)
        out[i] = bg->next_double(bg->state);
}

/* Row scratch array `i` (of 13) behind the two cap x width matrices. */
static int32_t *scratch(const Selector *s, int64_t i)
{
    return s->work + (2 * s->width + i) * s->cap;
}

/* Output row of batch row j: row[j], or j itself for a whole batch. */
static int64_t row_of(const int32_t *row, int64_t j)
{
    return row ? row[j] : j;
}

/* Coordinate mode: the GF(q) dot product of vertices a and b. */
static int64_t pf_dot(const Selector *s, int64_t a, int64_t b)
{
    const int64_t *u = s->pf_vec + 3 * a, *v = s->pf_vec + 3 * b;
    const int64_t *add = s->gf_add, *mul = s->gf_mul;
    int64_t q = s->q;
    int64_t xy = add[mul[u[0] * q + v[0]] * q + mul[u[1] * q + v[1]]];
    return add[xy * q + mul[u[2] * q + v[2]]];
}

/* Coordinate mode, a != b non-adjacent: their one common neighbour, the
 * cross product a x b left-normalised and coded as
 * PolarFly._vertex_codes codes it ([1, y, z] -> y q + z, [0, 1, z] ->
 * q^2 + z, [0, 0, 1] -> q^2 + q). */
static int64_t pf_mid(const Selector *s, int64_t a, int64_t b)
{
    const int64_t *u = s->pf_vec + 3 * a, *v = s->pf_vec + 3 * b;
    const int64_t *sub = s->gf_sub, *mul = s->gf_mul;
    int64_t q = s->q;
    int64_t c0 = sub[mul[u[1] * q + v[2]] * q + mul[u[2] * q + v[1]]];
    int64_t c1 = sub[mul[u[2] * q + v[0]] * q + mul[u[0] * q + v[2]]];
    int64_t c2 = sub[mul[u[0] * q + v[1]] * q + mul[u[1] * q + v[0]]];
    if (c0) {
        int64_t k = s->gf_inv[c0];
        return mul[k * q + c1] * q + mul[k * q + c2];
    }
    if (c1)
        return q * q + mul[s->gf_inv[c1] * q + c2];
    return q * q + q;
}

/* PolarStar mode: x carried from supernode a to its ER_q neighbour b by
 * their matching — eta x up the edge (a < b), eta^-1 x down it. */
static int64_t ps_match(const Selector *s, int64_t a, int64_t b, int64_t x)
{
    return a < b ? s->ps_up[x] : s->ps_down[x];
}

/* PolarStar mode: x carried from supernode a through w on to b. */
static int64_t ps_via(const Selector *s, int64_t a, int64_t w, int64_t b,
                      int64_t x)
{
    return ps_match(s, w, b, ps_match(s, a, w, x));
}

/* PolarStar mode: the distance from (u, x) = r to (v, y) = c.  Within a
 * supernode it is Paley's; adjacent supernodes are 1 apart on the
 * matching and 2 otherwise; any other pair is 2 apart when the two
 * matchings through their common ER_q neighbour u x v land on y, else 3
 * (routing/algebraic.py derives the rule). */
static int64_t ps_dist(const Selector *s, int64_t r, int64_t c)
{
    int64_t sq = s->sq, u = r / sq, x = r % sq, v = c / sq, y = c % sq;
    if (u == v)
        return x == y ? 0 : s->ps_adj[x * sq + y] ? 1 : 2;
    if (pf_dot(s, u, v) == 0)
        return ps_match(s, u, v, x) == y ? 1 : 2;
    return ps_via(s, u, pf_mid(s, u, v), v, x) == y ? 2 : 3;
}

/* PolarStar mode, a = (u, x) and b = (v, y) at distance >= 2: a's
 * minimal next hops towards b, written to ps_hops in ascending id order
 * — the candidate table's, so a draw's pick is the table walk's pick —
 * and counted.  Enumerated from the factors, with w = u x v:
 *  - one supernode: the common Paley neighbours of x and y;
 *  - adjacent supernodes: (u, M_vu y) if Paley-adjacent to x, else
 *    (v, M_uv x) — eta is a non-residue, so exactly one of the two is —
 *    and (w, M_uw x) when w is a third supernode carrying x to y;
 *  - otherwise (w, M_uw x), alone at distance 2; at distance 3 also
 *    (u, y carried back through w) if Paley-adjacent to x, and each
 *    other neighbour u' of u whose matchings through u' x v carry x to
 *    y.  Those take three matchings, so y = eta^(+-1 or +-3) x, and u's
 *    ER_q row is scanned only then. */
static int64_t ps_hops(const Selector *s, int64_t a, int64_t b)
{
    int64_t sq = s->sq, u = a / sq, x = a % sq, v = b / sq, y = b % sq;
    const _Bool *adj = s->ps_adj;
    const int64_t *up = s->ps_up, *down = s->ps_down;
    int64_t *out = s->ps_hops, c = 0;
    if (u == v) {
        for (int64_t z = 0; z < sq; z++)
            if (adj[x * sq + z] && adj[z * sq + y])
                out[c++] = u * sq + z;
        return c;
    }
    int64_t w = pf_mid(s, u, v);
    if (pf_dot(s, u, v) == 0) {
        int64_t xu = ps_match(s, v, u, y);
        out[c++] = adj[x * sq + xu] ? u * sq + xu : v * sq + ps_match(s, u, v, x);
        if (w != u && w != v && ps_via(s, u, w, v, x) == y) {
            int64_t hop = w * sq + ps_match(s, u, w, x);
            if (hop < out[0]) {
                out[1] = out[0];
                out[0] = hop;
            } else
                out[1] = hop;
            c++;
        }
        return c;
    }
    if (ps_via(s, u, w, v, x) == y) {
        out[0] = w * sq + ps_match(s, u, w, x);
        return 1;
    }
    int64_t xu = ps_via(s, v, w, u, y), intra = adj[x * sq + xu];
    const int64_t *nb = &w, *end = &w + 1;
    if (y == up[x] || y == up[up[up[x]]] || y == down[x]
            || y == down[down[down[x]]]) {
        nb = s->er_indices + s->er_indptr[u];
        end = s->er_indices + s->er_indptr[u + 1];
    }
    for (; nb < end; nb++) {
        int64_t u2 = *nb, x2 = ps_match(s, u, u2, x);
        if (intra && u < u2) {
            out[c++] = u * sq + xu;
            intra = 0;
        }
        if (u2 == w || ps_via(s, u2, pf_mid(s, u2, v), v, x2) == y)
            out[c++] = u2 * sq + x2;
    }
    if (intra)
        out[c++] = u * sq + xu;
    return c;
}

/* tables.dist[r, c], through the row indirection of a patched epoch; in
 * coordinate mode 0 on the diagonal, 1 for orthogonal vertices, else 2
 * (PolarStar: ps_dist). */
static int64_t dist_at(const Selector *s, int64_t r, int64_t c)
{
    if (s->sq)
        return ps_dist(s, r, c);
    if (s->pf_vec)
        return r == c ? 0 : pf_dot(s, r, c) == 0 ? 1 : 2;
    if (s->patch_row) {
        int64_t p = s->patch_row[r];
        if (p >= 0)
            return s->patch[p * s->n + c];
    }
    return s->dist[r * s->n + c];
}

/* Candidate `pick` of (cur, to), ascending id: the table builder's own
 * predicate, dist[v, to] == dist[cur, to] - 1, over cur's sorted row. */
static int64_t nth_hop(const Selector *s, int64_t cur, int64_t to, int64_t pick)
{
    int64_t closer = dist_at(s, cur, to) - 1, v = cur;
    for (int64_t e = s->g_indptr[cur]; e < s->g_indptr[cur + 1]; e++) {
        v = s->g_indices[e];
        if (dist_at(s, v, to) == closer && pick-- == 0)
            break;
    }
    return v;
}

/* RoutingTables.shortest_paths_batch(from, to, rng) over m rows:
 * column-major (for each path column, the rows still walking in row
 * order), one draw per tied pair, a neighbor scan only for picks > 0.
 * Coordinate mode reads the one minimal next hop — the destination on
 * a row's last column, else (the first hop of a distance-2 pair) the
 * common neighbour — with a count of 1: ER_q has no tied pair, so the
 * table walk draws nothing there either.  PolarStar mode draws over the
 * ps_hops list, which holds the table's candidates in the table's order.
 * Row j's path goes to out[row[j]] (row NULL: j) from column
 * off0 + base[row[j]] (base NULL: 0) on; columns past the row width are
 * dropped, the lengths stay exact.  wl[j] receives the path length. */
static void walk(const Selector *s, bitgen_t *bg, int64_t m,
                 const int32_t *from, const int32_t *to, const int32_t *row,
                 int32_t *out, const int32_t *base, int64_t off0, int32_t *wl)
{
    int64_t n = s->n, W = s->width, max_len = 0;
    int32_t *cur = scratch(s, 12);
    for (int64_t j = 0; j < m; j++) {
        int64_t r = row_of(row, j);
        int64_t pos = off0 + (base ? base[r] : 0);
        wl[j] = dist_at(s, from[j], to[j]) + 1;
        if (wl[j] > max_len)
            max_len = wl[j];
        cur[j] = from[j];
        if ((uint64_t)pos < (uint64_t)W)
            out[r * W + pos] = from[j];
    }
    for (int64_t col = 1; col < max_len; col++) {
        for (int64_t j = 0; j < m; j++) {
            if (wl[j] <= col)
                continue;
            int64_t nxt, cnt = 1;
            if (s->pf_vec && col == wl[j] - 1)
                nxt = to[j];
            else if (s->sq)
                nxt = s->ps_hops[draw(bg, ps_hops(s, cur[j], to[j]))];
            else if (s->pf_vec)
                nxt = pf_mid(s, cur[j], to[j]);
            else {
                int64_t pair = cur[j] * n + to[j];
                nxt = s->first[pair];
                cnt = s->count[pair];
            }
            if (cnt > 1) {
                int64_t pick = draw(bg, cnt);
                if (pick > 0)
                    nxt = nth_hop(s, cur[j], to[j], pick);
            }
            cur[j] = nxt;
            int64_t r = row_of(row, j);
            int64_t pos = off0 + (base ? base[r] : 0) + col;
            if ((uint64_t)pos < (uint64_t)W)
                out[r * W + pos] = nxt;
        }
    }
}

/* ValiantRouting.select_routes: m intermediates, the colliding/dead
 * rows redrawn in order until clean, then src->mid for every row, then
 * mid->dst spliced on at each row's first-leg end. */
static void sel_valiant(const Selector *s, bitgen_t *bg, int64_t m,
                        const int32_t *src, const int32_t *dst,
                        const int32_t *row, int32_t *out, int32_t *ol)
{
    int32_t *mid = scratch(s, 9), *bad = scratch(s, 10), *wl = scratch(s, 11);
    int64_t nb = m;
    for (int64_t j = 0; j < m; j++) {
        mid[j] = draw(bg, s->n);
        bad[j] = j;
    }
    while (nb) {
        int64_t keep = 0;
        for (int64_t i = 0; i < nb; i++) {
            int64_t j = bad[i], v = mid[j];
            if (v == src[j] || v == dst[j] || (s->alive && !s->alive[v]))
                bad[keep++] = j;
        }
        nb = keep;
        for (int64_t i = 0; i < nb; i++)
            mid[bad[i]] = draw(bg, s->n);
    }
    walk(s, bg, m, src, mid, row, out, 0, 0, wl);
    for (int64_t j = 0; j < m; j++)
        ol[row_of(row, j)] = wl[j];
    walk(s, bg, m, mid, dst, row, out, ol, -1, wl);
    for (int64_t j = 0; j < m; j++)
        ol[row_of(row, j)] += wl[j] - 1;
}

/* CompactValiantRouting.select_routes: the dist > 1 rows first (one
 * integers(degree[src]) each, then the mid->dst walk behind src), the
 * adjacent rows by general Valiant. */
static void sel_compact(const Selector *s, bitgen_t *bg, int64_t m,
                        const int32_t *src, const int32_t *dst,
                        const int32_t *row, int32_t *out, int32_t *ol)
{
    int64_t W = s->width;
    int32_t *s2 = scratch(s, 6), *d2 = scratch(s, 7), *r2 = scratch(s, 8);
    int32_t *mid = scratch(s, 9), *wl = scratch(s, 11);
    for (int far = 1; far >= 0; far--) {
        int64_t c = 0;
        for (int64_t j = 0; j < m; j++) {
            if ((dist_at(s, src[j], dst[j]) > 1) != far)
                continue;
            s2[c] = src[j];
            d2[c] = dst[j];
            r2[c++] = row_of(row, j);
        }
        if (c == 0)
            continue;
        if (!far) {
            sel_valiant(s, bg, c, s2, d2, r2, out, ol);
            continue;
        }
        for (int64_t i = 0; i < c; i++) {
            int64_t start = s->g_indptr[s2[i]];
            mid[i] = s->g_indices[
                start + draw(bg, s->g_indptr[s2[i] + 1] - start)];
            out[r2[i] * W] = s2[i];
        }
        walk(s, bg, c, mid, d2, r2, out, 0, 1, wl);
        for (int64_t i = 0; i < c; i++)
            ol[r2[i]] = wl[i] + 1;
    }
}

/* FatTreeNCARouting.select_routes, packet by packet: strip digits to the
 * NCA level, one draw over the parents (the CSR slice's tail: every
 * higher-level neighbor has a larger id) per up-hop, then down through
 * the first lower-level neighbor one hop closer to dst.  Callers pass
 * level-0 switches only, so an up-hop always has parents and nca
 * descents end at dst. */
static void sel_ftnca(const Selector *s, bitgen_t *bg, int64_t m,
                      const int32_t *src, const int32_t *dst,
                      int32_t *out, int32_t *ol)
{
    int64_t W = s->width, K = s->ft_k, spl = s->ft_spl;
    for (int64_t j = 0; j < m; j++) {
        int64_t cur = src[j], to = dst[j], len = 1, nca = 0;
        int32_t *path = out + j * W;
        path[0] = cur;
        for (int64_t a = cur % spl, b = to % spl; a != b; a /= K, b /= K)
            nca++;
        for (int64_t up = 0; up < nca; up++) {
            int64_t hi = s->g_indptr[cur + 1];
            int64_t lo = lower_bound(s->g_indices, s->g_indptr[cur], hi,
                                     (cur / spl + 1) * spl);
            cur = s->g_indices[lo + draw(bg, hi - lo)];
            if (len < W)
                path[len] = cur;
            len++;
        }
        for (int64_t down = 0; down < nca; down++) {
            int64_t closer = dist_at(s, cur, to) - 1, below = cur / spl - 1;
            for (int64_t e = s->g_indptr[cur]; e < s->g_indptr[cur + 1]; e++) {
                int64_t v = s->g_indices[e];
                if (v / spl == below && dist_at(s, v, to) == closer) {
                    cur = v;
                    break;
                }
            }
            if (len < W)
                path[len] = cur;
            len++;
        }
        ol[j] = len;
    }
}

/* CongestionView.output_occupancies for one (r, next_hop) pair: credit
 * debt + backlog. */
static int64_t occupancy(const SimState *st, const Selector *s,
                         int64_t r, int64_t next_hop)
{
    int64_t port = port_of(st, r, next_hop);
    return s->vc_depth - st->credits[(r * st->Dp + port) * st->V]
        + st->backlog[r * st->O + port];
}

/* The batch protocol of policy.select_routes for the five vectorized
 * policies and FT-NCA over k router pairs, whose ids the caller has
 * checked.  Paths land in the first cap x width scratch matrix, their
 * lengths in row array 0; returns the longest length — the caller checks
 * it against the slot stride (rows wider than `width` were truncated,
 * not written out of bounds) — or, before anything is drawn or written,
 * -2 when FT-NCA is handed a switch above level 0 (the Python body's
 * business). */
int64_t kselect(const SimState *st, const Selector *s, bitgen_t *bg,
                int64_t k, const int32_t *srcs, const int32_t *dsts)
{
    int64_t W = s->width;
    int32_t *paths = s->work, *alt = s->work + s->cap * W;
    int32_t *lens = scratch(s, 0), *alt_lens = scratch(s, 1);
    if (s->mode == 5) {
        for (int64_t i = 0; i < k; i++)
            if (srcs[i] >= s->ft_spl || dsts[i] >= s->ft_spl)
                return -2;
        sel_ftnca(s, bg, k, srcs, dsts, paths, lens);
    } else if (s->mode == 1)
        sel_valiant(s, bg, k, srcs, dsts, 0, paths, lens);
    else if (s->mode == 2)
        sel_compact(s, bg, k, srcs, dsts, 0, paths, lens);
    else
        walk(s, bg, k, srcs, dsts, 0, paths, 0, 0, lens);
    if (s->mode == 3 || s->mode == 4) {
        /* UGAL: Valiant candidates for the rows with a first hop —
         * UGAL_PF only for those whose min-path output buffer is over
         * threshold, and from Compact Valiant — then the queue x hops
         * comparison decides row by row. */
        int32_t *s1 = scratch(s, 2), *d1 = scratch(s, 3), *r1 = scratch(s, 4);
        int32_t *q_min = scratch(s, 5);
        int64_t c = 0;
        for (int64_t i = 0; i < k; i++) {
            if (lens[i] <= 1)
                continue;
            int64_t q = occupancy(st, s, srcs[i], paths[i * W + 1]);
            if (s->mode == 4 && !((double)q > s->over))
                continue;
            s1[c] = srcs[i];
            d1[c] = dsts[i];
            q_min[c] = (int32_t)q;
            r1[c++] = (int32_t)i;
        }
        if (c && s->mode == 3)
            sel_valiant(s, bg, c, s1, d1, r1, alt, alt_lens);
        else if (c)
            sel_compact(s, bg, c, s1, d1, r1, alt, alt_lens);
        for (int64_t j = 0; j < c; j++) {
            int64_t i = r1[j];
            int64_t q_val = occupancy(st, s, srcs[i], alt[i * W + 1]);
            if ((int64_t)q_min[j] * (lens[i] - 1)
                    > q_val * (alt_lens[i] - 1) + s->bias) {
                int64_t w = alt_lens[i] < W ? alt_lens[i] : W;
                memcpy(paths + i * W, alt + i * W, w * sizeof(int32_t));
                lens[i] = alt_lens[i];
            }
        }
    }
    int64_t max_len = 0;
    for (int64_t i = 0; i < k; i++)
        if (lens[i] > max_len)
            max_len = lens[i];
    return max_len;
}

/* ------------------------------------------------------------------
 * Spans: cycles [now, until) of the protocol in engine.py end to end —
 * injection, feed, router phase and WorkloadState.commit — on the
 * caller's bit stream and the caller's arrays.  The injection process is
 * Bernoulli, or with `wl` the closed loop's ready queue; fault mode
 * (st->fault_mode, between two epoch boundaries — the deltas themselves
 * stay in Python) adds the survival masks, the drop accounting and,
 * closed loop, the retransmit queue.  Every mode test below runs once
 * per cycle, never per endpoint or per flit.
 * ------------------------------------------------------------------ */

static int cmp_int64(const void *a, const void *b)
{
    int64_t x = *(const int64_t *)a, y = *(const int64_t *)b;
    return (x > y) - (x < y);
}

/* Packets the cycle may inject closed loop: one per queued retransmit,
 * and the ready queue's messages expanded (WorkloadState.pop_ready,
 * sized). */
static int64_t ready_packets(const SimState *st, const Workload *wl)
{
    int64_t k = st->rt_queue ? *st->rt_len : 0;
    for (int64_t i = 0; i < wl->tally[WL_READY_LEN]; i++)
        k += wl->pkts[wl->ready[i]];
    return k;
}

/* FaultState.pop_retransmits, then pop_ready with filter_messages: the
 * lost packets' messages in drop order, a packet each, then the ready
 * queue FIFO, message-major and packet-minor — the order the batch is
 * routed and injected in.  A message with a dead endpoint is blackholed,
 * with all its packets.  Returns the packets. */
static int64_t pop_ready(const SimState *st, const Workload *wl,
                         const Injector *inj, SpanOut *out)
{
    const _Bool *alive = inj->router_alive;
    int64_t j = 0, rt = st->rt_queue ? *st->rt_len : 0;
    for (int64_t i = 0; i < rt + wl->tally[WL_READY_LEN]; i++) {
        int64_t m = i < rt ? st->rt_queue[i] : wl->ready[i - rt];
        int64_t pkts = i < rt ? 1 : wl->pkts[m];
        if (alive && !(alive[wl->src[m]] && alive[wl->dst[m]])) {
            out->blackholed += pkts;
            continue;
        }
        out->retransmitted += i < rt;
        for (int64_t p = 0; p < pkts; p++, j++) {
            inj->mids[j] = (int32_t)m;
            inj->srcs[j] = (int32_t)wl->src[m];
            inj->dsts[j] = (int32_t)wl->dst[m];
        }
    }
    if (rt)
        *st->rt_len = 0;
    wl->tally[WL_READY_LEN] = 0;
    return j;
}

/* WorkloadState.note_tails + commit over this cycle's ejected tails: a
 * message completes with its last packet; completions are processed in
 * ascending id order, and the dependents they release join the ready
 * queue in ascending id order, eligible from the next cycle.  Returns
 * whether every message has now completed. */
static int64_t commit_tails(const SimState *st, const Workload *wl,
                            int64_t n_tail, int64_t now)
{
    int64_t nf = 0, hops = 0;
    for (int64_t i = 0; i < n_tail; i++) {
        int64_t pid = st->tail_pids[i], m = st->pkt_msg[pid];
        hops += st->pkt_len[pid] - 1;
        if (--wl->rem_pkts[m] == 0)
            wl->fin[nf++] = m;
    }
    wl->tally[WL_FLIT_HOPS] += hops * st->ps;
    if (nf == 0)
        return 0;
    qsort(wl->fin, nf, sizeof(int64_t), cmp_int64);
    int64_t was = wl->tally[WL_READY_LEN], len = was;
    for (int64_t i = 0; i < nf; i++) {
        int64_t m = wl->fin[i];
        wl->complete_cycle[m] = now;
        for (int64_t e = wl->dep_indptr[m]; e < wl->dep_indptr[m + 1]; e++) {
            int64_t d = wl->dep_indices[e];
            if (--wl->pending[d] == 0) {
                wl->eligible_cycle[d] = now;
                wl->ready[len++] = d;
            }
        }
    }
    qsort(wl->ready + was, len - was, sizeof(int64_t), cmp_int64);
    wl->tally[WL_READY_LEN] = len;
    wl->tally[WL_COMPLETED] += nf;
    return wl->tally[WL_COMPLETED] == wl->n_msgs;
}

/* Open loop's step 1 (FlatSimulator._inject): rng.random(E) < prob over
 * every endpoint — dead ones just cannot win — then the pattern's
 * dest_routers over the k winners, in endpoint order: hotspot's
 * random(k) coins first (parked in dsts), then one bounded draw per
 * packet unless the pattern is a permutation.  Packets bound for a dead
 * router are blackholed.  Returns the packets kept. */
static int64_t draw_packets(const SimState *st, const Injector *inj,
                            bitgen_t *bg, SpanOut *out)
{
    int64_t k = 0, keep = 0, pattern = inj->pattern;
    for (int64_t e = 0; e < st->E; e++)
        if (bg->next_double(bg->state) < inj->prob
                && (!inj->ep_alive || inj->ep_alive[e]))
            inj->winners[k++] = (int32_t)e;
    if (pattern == DEST_HOTSPOT)
        for (int64_t j = 0; j < k; j++)
            inj->dsts[j] = bg->next_double(bg->state) < inj->hot_fraction;
    for (int64_t j = 0; j < k; j++) {
        int64_t src = st->ep_router[inj->winners[j]];
        int64_t at = inj->pos[src];
        if (pattern != DEST_PERMUTATION) {
            int64_t d = draw(bg, inj->n_term - 1);
            at = d < at ? d : d + 1;
        }
        int64_t dst = inj->table[at];
        if (pattern == DEST_HOTSPOT && inj->dsts[j] && src != inj->hotspot)
            dst = inj->hotspot;
        if (inj->router_alive && !inj->router_alive[dst])
            continue;
        inj->winners[keep] = inj->winners[j];
        inj->srcs[keep] = (int32_t)src;
        inj->dsts[keep++] = (int32_t)dst;
    }
    out->blackholed += k - keep;
    return keep;
}

/* Returns SPAN_DONE at `until` — or, closed loop, at the end of the
 * cycle that completed the workload — or earlier with out->now = the
 * cycle not yet started: SPAN_GROW at a cycle boundary, before anything
 * is drawn or popped, when the cycle may lack room — a flit row per
 * endpoint for the feed, packet slots and scratch for the out->need
 * packets it injects (E for a Bernoulli draw, the retransmit and ready
 * queues closed loop), the sample columns for E more tails —
 * Python makes room and calls again — and SPAN_TOO_LONG where the
 * numpy path raises.  The counters in `out` accumulate across calls. */
int64_t kcycles(SimState *st, const Selector *sel, bitgen_t *bg,
                const Injector *inj, const Workload *wl,
                int64_t now, int64_t until, SpanOut *out)
{
    int64_t E = st->E, ps = st->ps, W = sel->width, fm = st->fault_mode;
    const int32_t *paths = sel->work, *lens = scratch(sel, 0);
    for (; now < until; now++) {
        out->now = now;
        int64_t k = wl ? ready_packets(st, wl) : inj->prob > 0.0 ? E : 0;
        if (*st->free_top < E || *st->pkt_free_top < k || k > inj->cap
                || k > sel->cap || out->samples + E > inj->sample_cap) {
            out->need = k;
            return SPAN_GROW;
        }

        /* Step 1: the queues closed loop, the Bernoulli winners and
         * their destinations open loop. */
        if (wl)
            k = pop_ready(st, wl, inj, out);
        else if (k)
            k = draw_packets(st, inj, bg, out);
        if (k) {
            int64_t max_len = kselect(st, sel, bg, k, inj->srcs, inj->dsts);
            /* KernelSpan.bind vouched for every id kselect refuses, so
             * a negative result is only kept out of the memcpy here. */
            if (max_len < 0 || max_len > st->stride) {
                out->max_len = max_len;
                return SPAN_TOO_LONG;
            }
            /* Slots come off the stack as one block, in stack order;
             * each route row takes the batch's max_len columns, like
             * the matrix assignment it mirrors. */
            int64_t top = (*st->pkt_free_top -= k);
            for (int64_t j = 0; j < k; j++) {
                int64_t pid = inj->slots[j] = st->pkt_free[top + j];
                memcpy(st->route_buf + pid * st->stride, paths + j * W,
                       max_len * sizeof(int32_t));
                st->pkt_len[pid] = (int8_t)lens[j];
                st->pkt_dst[pid] = paths[j * W + lens[j] - 1];
                st->pkt_t_created[pid] = (int32_t)now;
                st->pkt_measured[pid] = inj->measuring != 0;
            }
            if (fm)
                for (int64_t j = 0; j < k; j++) {
                    st->pkt_live[inj->slots[j]] = (int16_t)ps;
                    st->pkt_damaged[inj->slots[j]] = 0;
                }
            if (wl)
                /* The message's source router deals its endpoints out
                 * round-robin, packet by packet in batch order. */
                for (int64_t j = 0; j < k; j++) {
                    int64_t r = inj->srcs[j];
                    st->pkt_msg[inj->slots[j]] = inj->mids[j];
                    inj->winners[j] = (int32_t)(
                        st->ep_off[r] + wl->inj_rr[r]++ % st->conc[r]);
                }
            kinject(st, k, inj->slots, inj->winners);
            out->packets += k;
            if (inj->measuring)
                out->injected_flits += k * ps;
        }

        /* Steps 2-3, then the measured tails' samples in grant order
         * (a recycled slot keeps its row until the next injection). */
        int64_t n_ej;
        if (fm)
            st->fcnt[0] = st->fcnt[1] = 0;
        kfeed(st, now);
        int64_t n_tail = kroute(st, now, &n_ej);
        if (inj->measuring)
            out->ejected_flits += n_ej;
        for (int64_t i = 0; i < n_tail; i++) {
            int64_t pid = st->tail_pids[i];
            if (!st->pkt_measured[pid])
                continue;
            inj->lat[out->samples] = (int32_t)(now - st->pkt_t_created[pid]);
            inj->hops[out->samples++] = st->pkt_len[pid] - 1;
        }
        if (fm) {
            out->dropped_flits += st->fcnt[0];
            out->tail_drops += st->fcnt[1];
            for (int64_t i = 0; i < n_tail; i++)
                out->damaged += st->pkt_damaged[st->tail_pids[i]];
        }
        if (wl && n_tail && commit_tails(st, wl, n_tail, now)) {
            now++;
            break;
        }
    }
    out->now = now;
    return SPAN_DONE;
}
