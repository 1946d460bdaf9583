"""Optional C cycle kernel for the struct-of-arrays engine.

The flat engine's per-cycle work (feed, arbitration, credit flow,
forwarding) is a few hundred tiny array operations; at small network
sizes the numpy dispatch overhead dominates.  This module compiles the
same cycle protocol (see :mod:`repro.flitsim.engine`) as one C pass over
the very same flat arrays, via :mod:`cffi` — no new dependencies,
no extension to build at install time.

The kernel is **universal**: it executes the full cycle protocol in
every mode, not just open loop.

* *Workload mode* needs no extra C state on the per-cycle path —
  ``kinject`` appends packet flit chains to arbitrary (possibly
  repeated) endpoint FIFOs, and the per-cycle **completion ring buffer**
  ``tail_pids`` (filled by ``kroute`` in grant order, the
  latency-recording order) carries every ejected tail back to Python,
  where the workload eligibility state machine maps packet slots to
  message ids.  A span runs that state machine itself, over the
  :class:`~repro.workloads.state.WorkloadState`'s own arrays.
* *Fault mode* sets ``fault_mode`` and binds the death mask
  (``dead_row``), per-packet outstanding-flit counters (``pkt_live``,
  replacing tail-order slot recycling, since drops retire packets out
  of order), the damaged-packet flags, and a second per-cycle ring
  buffer ``drop_tail_pids`` plus the ``fcnt`` counters for exact
  drop/credit reporting: head flits whose first hop is dead drop in
  endpoint order without consuming the injection credit, and granted
  flits whose next output is dead evaporate on the wire in grant order
  without consuming the upstream credit — bit-identical to the numpy
  path and the reference engine.  Epoch-boundary table swaps and
  event-time queue drops stay in Python (they are rare); they mutate
  the very arrays the kernel is bound to, so no re-binding is needed,
  and ``kselect`` follows a repaired epoch's row-patched distance view
  through a per-row indirection.

* *Route selection* (``kselect``) is the same module's second job: the
  batch protocol of ``policy.select_routes`` for exactly
  ``MinimalRouting``, ``ValiantRouting``, ``CompactValiantRouting``,
  ``UGALRouting``, ``UGALPFRouting`` and ``FatTreeNCARouting``, over
  the routing tables' existing arrays — or, on an intact PolarFly,
  over the vertex vectors and GF(q)'s tables, deriving distances and
  next hops from coordinates (paper §IV-D) so that no table is built,
  and on an intact PolarStar over those of its ER_q structure graph
  plus the Paley supernode and the two matchings, enumerating each
  pair's tied next hops from the two factors —
  and the caller's own ``numpy.random.Generator`` bit stream
  (``bitgen_t``).  **The numpy
  ``select_routes`` bodies in
  :mod:`repro.routing.policies` define the stream — which draws, with
  which bounds, in which order — and the C code mirrors them literally**
  (column-major ECMP walk, Valiant's draw/redraw/walk/walk sequence,
  32-bit Lemire rejection, no draw for a bound of 1); a change to either
  side is a change to both.  :mod:`repro.flitsim.kselect` holds the host
  half and the conditions under which the mirror declines.  Since
  bit-identity now rests on ``Generator.integers``' and
  ``Generator.random``'s algorithms, :func:`load_kernel` self-tests the
  C draws against numpy's at load (< 1 ms) and records the verdict as
  ``module.select_ok``; on a mismatch every simulator keeps the numpy
  bodies and the per-cycle path.

* *Spans* (``kcycles``) compose the entries above into whole cycles:
  injection — the Bernoulli draw (``next_double`` per endpoint, none at
  zero load) and the destination pick, or closed loop the ready queue
  drained FIFO into packets with a round-robin endpoint each —
  ``kselect``, packet-slot fill, ``kinject``, ``kfeed``, ``kroute``, the
  latency samples of measured tails and, closed loop, the completion
  commit through the dependents CSR, for as many cycles as the caller
  asks.  Between two fault epochs it also applies the survival masks to
  the winners and their destinations and counts drops, damaged
  deliveries and blackholed packets for Python to fold into the fault
  state once per call.  It returns early, at a cycle boundary, only
  when Python must grow a pool or the batch scratch, flush the sample
  buffers, or the workload has completed.  It calls the same functions
  the per-cycle path calls one by one, so there is one copy of the
  cycle logic; the per-cycle sequence in
  :class:`~repro.flitsim.flatcore.FlatSimulator` defines the result and
  :mod:`repro.flitsim.kspan` decides when a span may stand in for it.

* Loading is best-effort: no cffi, no C compiler, or any compile error
  yields ``None`` (with a one-line stderr diagnostic) and
  :class:`~repro.flitsim.flatcore.FlatSimulator` falls back to its
  pure-numpy path (bit-identical results either way — the golden
  equivalence tests run both).
* ``REPRO_FLAT_KERNEL=0`` (or ``false``/``off``/``no``) disables the
  kernel — cycle loop and route selection — explicitly; the setting
  is re-read on every :func:`load_kernel` call, so tests and benchmarks
  can toggle the cycle path per construction without reloading.
* Compiled modules are cached under ``$REPRO_KERNEL_CACHE`` (default
  ``~/.cache/repro-flitsim``) keyed by a hash of the C source and the
  build's flags, ``$CC`` / ``$CFLAGS`` / ``$CPPFLAGS`` / ``$LDFLAGS``
  included, so the compiler runs once per source revision and build
  environment, not once per process — test runs and CI import the
  cached ``.so`` instead of recompiling, and a sanitizer build never
  shares a name with a plain one.

The C code mirrors the *reference* engine's decision loop (routers
ascending, link outputs then ejection, circular round-robin scan,
decide-all-then-apply) — the simplest shape to audit against
``reference.py`` side by side.  The decide loop is occupancy-driven at
both levels, rows and inputs.  It walks the set bits of ``busy_rows`` —
one bit per (router, out) row, ``ceil(n*O / 64)`` ``uint64`` words (7 KB
at PF q=37), bit ``r*O + out`` set exactly while ``backlog[r*O + out]``
is positive — in ascending order, which is routers ascending, link
outputs ascending, ejection (column ``OE = O - 1``) last; ``backlog`` is
the exact sum of the row's queue lengths, so a skipped row holds no flit,
grants nothing, and leaves its round-robin pointer untouched, and an
idle cycle costs a 7 KB read instead of one per row.  Inside a row it
walks the set bits of the row's occupancy mask ``row_mask`` —
``ceil(I / 64)`` ``uint64`` words per row, bit ``in`` set exactly while
VOQ (router, in, out) is non-empty — circularly from the ``rr`` pointer
by count-trailing-zeros, in one pass over the row's words at any width,
which visits the non-empty inputs in the very order the P-wide scan of
every input did, applies the same ready / credit tests and updates
``rr`` the same way: bit-identical grants for work proportional to
flits in flight instead of N*(d+1)*P queue probes, out of a mask that
stays cache-resident (~460 KB at PF q=37, where the probes it replaces
were 40 cache lines per row).  Both
masks are kernel-only state: C ``enqueue`` sets a bit on the
empty→non-empty edge of a queue or a row, ``kroute``'s apply clears it
when a granted head was its queue's tail or the row's backlog reaches 0,
and ``FlatSimulator._drop_vq`` — the one Python site that empties a VOQ
on the kernel path — clears them with the queue.  Every mutation site,
C and numpy, moves ``backlog`` with the queues, and
``tests/test_flitsim_saturation.py`` pins the three invariants after
every cycle.

A VOQ is one ``int32`` record, its tail's flit-pool row plus one (0:
empty), in the 1-D array ``FlatSimulator._voq``, bound as the single
pointer ``voq`` — hence the pool's loud 2**31 - 1 row ceiling, below
which ``tail + 1`` fits.  Chains are circular, the tail's ``next`` being
the head, so the one record reaches both ends: enqueue links the new
flit between tail and head, a pop relinks the tail past the old head or
zeroes the record when the head was the tail.  Records are row-major,
VOQ (r, in, out) at ``(r*O + out)*I + in``, so ``arbitrate`` reads a
row's queues from consecutive addresses.  The array starts zeroed
(``np.zeros``, no fill pass); queue lengths are not stored, ``backlog``
holds their row sums.  A flit is one 16-byte ``Flit``
record ``{next, pid, ready, hop, seq}`` (three ``int32``, two
``int16``) of the structured array ``FlatSimulator._pool``, bound as
the single pointer ``pool``; a grant is one ``int32`` ``Grant`` record
``{f, r, in, out}``, so apply rebuilds the VOQ index by multiplying
instead of dividing it apart.  The route phase never searches a
neighbor row: ``kinject`` resolves every hop's output port once per
packet into ``route_port`` (``int16``, one ``stride``-wide row per
packet slot, kernel-only state like ``row_mask``) — ``OE`` where the
packet ejects — and ``kfeed`` and apply only read it.  The narrowed fields fail loudly at their ceilings
in :class:`~repro.flitsim.flatcore.FlatSimulator`: ``packet_size`` and
the route stride at construction, the cycle count before a ready stamp
could pass 2**31 - 1.  Everything else the kernel is bound to stays
flat ``int64``.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import os
import shutil
import sys
import tempfile

import numpy as np

from repro.utils.env import env_disabled

__all__ = [
    "load_kernel", "kernel_enabled", "numpy_fallback", "bitgen_of", "bind_struct",
]

_STRUCT = """
/* One flit-pool row (16 bytes): the next row in its queue, its packet
 * slot, the cycle it may compete from, its hop index and sequence number
 * within the packet. */
typedef struct {
    int32_t next, pid, ready;
    int16_t hop, seq;
} Flit;

/* One grant of a cycle: the winning flit and its VOQ's coordinates. */
typedef struct {
    int32_t f, r, in, out;
} Grant;

typedef struct {
    int64_t n, E, I, O, OE, Dp, V, ps, hop_latency, stride;
    int64_t fault_mode;
    int64_t *deg, *ports, *conc;
    int64_t *nbr;
    int16_t *rev;
    int64_t *adj_indptr, *adj_indices;
    int64_t *ep_router, *ep_inport, *ep_off;
    /* One 4-byte record per VOQ, (router * O + out) * I + in: the tail's
     * pool row plus one, 0 while the queue is empty.  The chain is
     * circular, so the head is the tail's next. */
    int32_t *voq;
    /* Per (router, out) row, ceil(I / 64) words: bit `in` is set exactly
     * while VOQ (router, in, out) holds a flit. */
    uint64_t *row_mask;
    /* ceil(n * O / 64) words: bit r * O + out is set exactly while
     * backlog[r * O + out] > 0. */
    uint64_t *busy_rows;
    int64_t *backlog, *rr, *credits;
    Flit *pool;
    int64_t *src_head, *src_tail, *ep_credit;
    int64_t *pkt_len, *pkt_dst, *pkt_t_created;
    int64_t *pkt_msg;       /* owning workload message (-1 open loop) */
    int8_t *pkt_measured;
    int64_t *route_buf;
    /* Per packet slot, `stride` output ports: route_port[pid * stride + h]
     * is the port the packet leaves router route[h] by (OE: ejection),
     * resolved once by kinject. */
    int16_t *route_port;
    int64_t *pkt_free, *pkt_free_top;
    int64_t *free_stack, *free_top;
    Grant *grants;
    int64_t *tail_pids;
    /* Fault mode only (fault_mode == 0 leaves these NULL): the
     * (router, out) death mask, outstanding-flit counters and damaged
     * flags per packet slot, the tail-drop ring buffer (drop order),
     * and fcnt = {dropped flits, tail drops} for the current cycle. */
    int8_t *dead_row;
    int64_t *pkt_live;
    int8_t *pkt_damaged;
    int64_t *drop_tail_pids;
    int64_t *fcnt;
    /* Cumulative per-link flit counters (n * Dp, indexed r * Dp + out):
     * NULL until link telemetry is attached, then bound once and never
     * re-pointed; every link grant counts, warmup and drain included
     * (observers difference snapshots), and the detached path costs
     * one predictable branch per forwarded flit. */
    int64_t *link_flits;
} SimState;
"""

#: numpy's bit-generator ABI (``numpy/random/bitgen.h``, unchanged since
#: 1.17) and the route-selection state ``kselect`` runs on.
_SELECT_STRUCT = """
typedef struct {
    void *state;
    uint64_t (*next_uint64)(void *st);
    uint32_t (*next_uint32)(void *st);
    double (*next_double)(void *st);
    uint64_t (*next_raw)(void *st);
} bitgen_t;

typedef struct {
    /* 0 min, 1 valiant, 2 compact valiant, 3 ugal, 4 ugal-pf, 5 ftnca */
    int64_t mode;
    int64_t n, bias, vc_depth;
    double over;            /* ugal-pf: threshold * capacity */
    int64_t ft_k, ft_spl;   /* ftnca: arity, switches per level */
    /* RoutingTables: distance matrix + compact candidate table.  A
     * fault epoch's RowPatchedDist binds as its base matrix plus the
     * rows the failure changed: patch_row[r] is r's row in `patch`, -1
     * for a base row (patch_row NULL: a plain matrix). */
    int16_t *dist, *patch, *first;
    int64_t *patch_row;
    uint8_t *count;
    /* CSR of policy.topo.graph — the *degraded* graph in a fault epoch,
     * unlike SimState's adj_* port map of the intact fabric; tied next
     * hops are found again by scanning its sorted rows. */
    int64_t *g_indptr, *g_indices;
    int8_t *alive;          /* NULL: every router alive */
    /* Coordinate mode — an intact PolarFly (routing/algebraic.py's
     * coordinates_apply); dist, patch, first and count are then NULL:
     * the n x 3 left-normalised vertex vectors and GF(q)'s add, sub and
     * mul tables (q x q) and inverses (q).  pf_vec NULL: table mode. */
    int64_t q;
    int64_t *pf_vec, *gf_add, *gf_sub, *gf_mul, *gf_inv;
    /* ... and on an intact PolarStar (the same rule), whose ER_q
     * structure graph the fields above then describe, its supernode
     * layer: the order sq (0: not PolarStar), the Paley(sq) adjacency
     * (sq x sq), the matchings x -> eta x and x -> eta^-1 x, ER_q's CSR,
     * and room for one pair's tied next hops (radix entries). */
    int64_t sq;
    int8_t *ps_adj;
    int64_t *ps_up, *ps_down, *er_indptr, *er_indices, *ps_hops;
    /* Scratch: cap * (2 * width + 13) int64; rows are `width` wide. */
    int64_t cap, width;
    int64_t *work;
} Selector;
"""

#: the injection process of one ``kcycles`` span — Bernoulli or, with a
#: ``Workload``, the closed-loop message state machine — its counters, and
#: why it handed control back (``lib.SPAN_*`` on the host side)
_SPAN_STRUCT = """
enum { SPAN_DONE, SPAN_GROW, SPAN_FLUSH, SPAN_TOO_LONG };
/* Cells of Workload.tally. */
enum { WL_READY_LEN, WL_COMPLETED, WL_FLIT_HOPS };

typedef struct {
    double prob;            /* load / packet_size; <= 0 draws nothing */
    int64_t measuring;      /* the window flag, constant over a span */
    /* Destination pick: table[pos[src]] for a permutation, else the
     * uniform draw over the n_term terminals in `table`, skipping the
     * source's own position. */
    int64_t permutation, n_term;
    int64_t *pos, *table;
    /* Scratch, `cap` each (cap >= E): per packet of the cycle its
     * endpoint, routers, slot and — closed loop — message. */
    int64_t cap;
    int64_t *winners, *srcs, *dsts, *slots, *mids;
    /* FaultState's survival masks while some router is dead, else NULL:
     * dead endpoints cannot win, dead destinations blackhole. */
    int8_t *ep_alive, *router_alive;
    /* Latency / hop count of measured tails, in grant order. */
    int64_t *lat, *hops;
    int64_t sample_cap;
} Injector;

/* WorkloadState's own arrays (workloads/state.py): the span reads and
 * writes the very object the per-cycle path and the reference engine
 * drive through its Python methods. */
typedef struct {
    int64_t n_msgs;
    int64_t *src, *dst, *pkts;          /* per message, read-only */
    int64_t *dep_indptr, *dep_indices;  /* dependents CSR, read-only */
    int64_t *ready, *tally;             /* FIFO buffer; WL_* cells */
    int64_t *rem_pkts, *pending, *eligible_cycle, *complete_cycle;
    int64_t *inj_rr;
    int64_t *fin;           /* scratch: messages finishing this cycle */
} Workload;

typedef struct {
    int64_t now;            /* first cycle not yet executed */
    int64_t packets, injected_flits, ejected_flits, samples;
    /* Fault accounting, for FaultState's note_* once per call. */
    int64_t dropped_flits, tail_drops, damaged, blackholed;
    int64_t need;           /* SPAN_GROW: packets the cycle must hold */
    int64_t max_len;        /* kselect's result at SPAN_TOO_LONG */
} SpanOut;
"""

_CDEF = _STRUCT + _SELECT_STRUCT + _SPAN_STRUCT + """
void kinject(SimState *st, int64_t now, int64_t k,
             const int64_t *slots, const int64_t *winners);
void kfeed(SimState *st, int64_t now);
int64_t kroute(SimState *st, int64_t now, int64_t *n_ejected);
int64_t kselect(const SimState *st, const Selector *sel, bitgen_t *bg,
                int64_t k, const int64_t *srcs, const int64_t *dsts);
int64_t kcycles(SimState *st, const Selector *sel, bitgen_t *bg,
                const Injector *inj, const Workload *wl,
                int64_t now, int64_t until, SpanOut *out);
void kdraws(bitgen_t *bg, int64_t k, const int64_t *bounds, int64_t *out);
void kdoubles(bitgen_t *bg, int64_t k, double *out);
"""

_C_SOURCE = """
#include <stdint.h>
#include <stdlib.h>
#include <string.h>
""" + _STRUCT + _SELECT_STRUCT + _SPAN_STRUCT + """

/* Account and release one dropped flit row (fault mode): bump the
 * flit-drop counter, flag the packet damaged, record a lost tail in the
 * ring buffer (array order = drop order, which feeds the retransmit
 * queue), and recycle the pool row — plus the packet slot once its
 * outstanding-flit count hits zero. */
static void drop_flit(SimState *st, int64_t f)
{
    int64_t pid = st->pool[f].pid;
    st->fcnt[0] += 1;
    st->pkt_damaged[pid] = 1;
    if (st->pool[f].seq == st->ps - 1)
        st->drop_tail_pids[st->fcnt[1]++] = pid;
    st->free_stack[(*st->free_top)++] = f;
    if (--st->pkt_live[pid] == 0)
        st->pkt_free[(*st->pkt_free_top)++] = pid;
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
    const int64_t *route = st->route_buf + pid * st->stride;
    int16_t *port = st->route_port + pid * st->stride;
    int64_t len = st->pkt_len[pid], dst = st->pkt_dst[pid];
    port[0] = (int16_t)(len == 1 ? st->OE : port_of(st, route[0], route[1]));
    for (int64_t h = 1; h < len; h++)
        port[h] = (int16_t)(route[h] == dst
                            ? st->OE : port_of(st, route[h], route[h + 1]));
}

/* Protocol step 1 plumbing: output ports, pool rows and FIFO chains for
 * k new packets (RNG, routing, and the packet table are written by the
 * caller).  winners[j] is packet j's endpoint; repeats are fine —
 * sequential appends keep per-endpoint FIFO order, which is all the
 * protocol observes — so the same call serves Bernoulli winners
 * (distinct) and workload batches (several packets may land on one
 * endpoint). */
void kinject(SimState *st, int64_t now, int64_t k,
             const int64_t *slots, const int64_t *winners)
{
    int64_t ps = st->ps;
    for (int64_t j = 0; j < k; j++) {
        int64_t e = winners[j];
        int64_t pid = slots[j];
        int64_t first = -1, prev = -1;
        fill_ports(st, pid);
        for (int64_t s = 0; s < ps; s++) {
            int64_t f = st->free_stack[--(*st->free_top)];
            Flit *fl = st->pool + f;
            fl->next = -1;
            fl->pid = (int32_t)pid;
            fl->ready = (int32_t)now;
            fl->hop = 0;
            fl->seq = (int16_t)s;
            if (prev >= 0)
                st->pool[prev].next = (int32_t)f;
            else
                first = f;
            prev = f;
        }
        if (st->src_tail[e] >= 0)
            st->pool[st->src_tail[e]].next = (int32_t)first;
        else
            st->src_head[e] = first;
        st->src_tail[e] = prev;
    }
}

/* Protocol step 2: one flit per endpoint from FIFO to injection VOQ.
 * Fault mode: a head flit whose first-hop output is dead drops before
 * entering the buffer (endpoint-ascending drop order), spending the
 * endpoint's one-flit feed slot without consuming the credit. */
void kfeed(SimState *st, int64_t now)
{
    (void)now;
    int64_t O = st->O;
    int64_t fm = st->fault_mode;
    for (int64_t e = 0; e < st->E; e++) {
        int64_t f = st->src_head[e];
        if (f < 0)
            continue;
        /* Outside fault mode nothing precedes the credit check, so a
         * blocked endpoint skips the port read; under faults the
         * doomed-head drop below is decided first and needs `out`. */
        if (!fm && st->ep_credit[e] <= 0)
            continue;
        int64_t r = st->ep_router[e];
        int64_t out = st->route_port[st->pool[f].pid * st->stride];
        if (fm && st->dead_row[r * O + out]) {
            st->src_head[e] = st->pool[f].next;
            if (st->src_head[e] < 0)
                st->src_tail[e] = -1;
            drop_flit(st, f);
            continue;
        }
        if (st->ep_credit[e] <= 0)
            continue;
        st->src_head[e] = st->pool[f].next;
        if (st->src_head[e] < 0)
            st->src_tail[e] = -1;
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
    const int64_t *credits = st->credits + (r * st->Dp + out) * V;
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
        st->rr[row] = last + 1 == P ? 0 : last + 1;
    return ng;
}

/* Protocol step 3: decide every grant from current state, then apply.
 * Returns the number of completed (tail-flit) packets written to
 * st->tail_pids; *n_ejected counts every ejected flit. */
int64_t kroute(SimState *st, int64_t now, int64_t *n_ejected)
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
                st->tail_pids[n_tail++] = pid;
            st->free_stack[(*st->free_top)++] = f;
            /* Slot recycling: tail order when nothing can drop; by
             * outstanding-flit count under faults (drops retire
             * packets out of tail order).  The caller reads pkt_* for
             * completed pids before any slot can be reallocated (next
             * injection). */
            if (fm) {
                if (--st->pkt_live[pid] == 0)
                    st->pkt_free[(*st->pkt_free_top)++] = pid;
            } else if (fl->seq == st->ps - 1) {
                st->pkt_free[(*st->pkt_free_top)++] = pid;
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
                drop_flit(st, f);
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
static int64_t *scratch(const Selector *s, int64_t i)
{
    return s->work + (2 * s->width + i) * s->cap;
}

/* Output row of batch row j: row[j], or j itself for a whole batch. */
static int64_t row_of(const int64_t *row, int64_t j)
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
    const int8_t *adj = s->ps_adj;
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
                 const int64_t *from, const int64_t *to, const int64_t *row,
                 int64_t *out, const int64_t *base, int64_t off0, int64_t *wl)
{
    int64_t n = s->n, W = s->width, max_len = 0;
    int64_t *cur = scratch(s, 12);
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
                        const int64_t *src, const int64_t *dst,
                        const int64_t *row, int64_t *out, int64_t *ol)
{
    int64_t *mid = scratch(s, 9), *bad = scratch(s, 10), *wl = scratch(s, 11);
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
                        const int64_t *src, const int64_t *dst,
                        const int64_t *row, int64_t *out, int64_t *ol)
{
    int64_t W = s->width;
    int64_t *s2 = scratch(s, 6), *d2 = scratch(s, 7), *r2 = scratch(s, 8);
    int64_t *mid = scratch(s, 9), *wl = scratch(s, 11);
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
                      const int64_t *src, const int64_t *dst,
                      int64_t *out, int64_t *ol)
{
    int64_t W = s->width, K = s->ft_k, spl = s->ft_spl;
    for (int64_t j = 0; j < m; j++) {
        int64_t cur = src[j], to = dst[j], len = 1, nca = 0;
        int64_t *path = out + j * W;
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
 * policies and FT-NCA.  Paths land in the first cap x width scratch
 * matrix, their lengths in row array 0; returns the longest length — the
 * caller checks it against the slot stride (rows wider than `width` were
 * truncated, not written out of bounds) — or, before anything is drawn
 * or written, -1 when a router id is out of range and -2 when FT-NCA is
 * handed a switch above level 0 (the Python body's business). */
int64_t kselect(const SimState *st, const Selector *s, bitgen_t *bg,
                int64_t k, const int64_t *srcs, const int64_t *dsts)
{
    int64_t W = s->width;
    for (int64_t i = 0; i < k; i++)
        if ((uint64_t)srcs[i] >= (uint64_t)s->n
                || (uint64_t)dsts[i] >= (uint64_t)s->n)
            return -1;
    int64_t *paths = s->work, *alt = s->work + s->cap * W;
    int64_t *lens = scratch(s, 0), *alt_lens = scratch(s, 1);
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
        int64_t *s1 = scratch(s, 2), *d1 = scratch(s, 3), *r1 = scratch(s, 4);
        int64_t *q_min = scratch(s, 5);
        int64_t c = 0;
        for (int64_t i = 0; i < k; i++) {
            if (lens[i] <= 1)
                continue;
            int64_t q = occupancy(st, s, srcs[i], paths[i * W + 1]);
            if (s->mode == 4 && !((double)q > s->over))
                continue;
            s1[c] = srcs[i];
            d1[c] = dsts[i];
            q_min[c] = q;
            r1[c++] = i;
        }
        if (c && s->mode == 3)
            sel_valiant(s, bg, c, s1, d1, r1, alt, alt_lens);
        else if (c)
            sel_compact(s, bg, c, s1, d1, r1, alt, alt_lens);
        for (int64_t j = 0; j < c; j++) {
            int64_t i = r1[j];
            int64_t q_val = occupancy(st, s, srcs[i], alt[i * W + 1]);
            if (q_min[j] * (lens[i] - 1)
                    > q_val * (alt_lens[i] - 1) + s->bias) {
                int64_t w = alt_lens[i] < W ? alt_lens[i] : W;
                memcpy(paths + i * W, alt + i * W, w * sizeof(int64_t));
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
 * FlatSimulator._inject or _inject_workload, then _kernel_cycle, then
 * WorkloadState.commit — on the caller's bit stream and the caller's
 * arrays.  The injection process is Bernoulli, or with `wl` the closed
 * loop's ready queue; fault mode (st->fault_mode, between two epoch
 * boundaries — the deltas themselves stay in Python) adds the survival
 * masks and the drop accounting.  Every mode test below runs once per
 * cycle, never per endpoint or per flit.  The host never asks for a
 * workload and fault mode together: the retransmit queue is Python's.
 * ------------------------------------------------------------------ */

static int cmp_int64(const void *a, const void *b)
{
    int64_t x = *(const int64_t *)a, y = *(const int64_t *)b;
    return (x > y) - (x < y);
}

/* Packets the ready queue expands to (WorkloadState.pop_ready, sized). */
static int64_t ready_packets(const Workload *wl)
{
    int64_t k = 0;
    for (int64_t i = 0; i < wl->tally[WL_READY_LEN]; i++)
        k += wl->pkts[wl->ready[i]];
    return k;
}

/* Drain the ready queue, FIFO, into packets: message-major,
 * packet-minor — the order the batch is routed and injected in. */
static void pop_ready(const Workload *wl, const Injector *inj)
{
    int64_t j = 0;
    for (int64_t i = 0; i < wl->tally[WL_READY_LEN]; i++) {
        int64_t m = wl->ready[i];
        for (int64_t p = 0; p < wl->pkts[m]; p++, j++) {
            inj->mids[j] = m;
            inj->srcs[j] = wl->src[m];
            inj->dsts[j] = wl->dst[m];
        }
    }
    wl->tally[WL_READY_LEN] = 0;
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

/* FlatSimulator._inject's two filters while a router is dead: keep the
 * winners on live endpoints; then, destinations drawn, the packets
 * bound for a live router.  Each returns the count kept, in order. */
static int64_t alive_winners(const Injector *inj, int64_t k)
{
    int64_t keep = 0;
    for (int64_t j = 0; j < k; j++)
        if (inj->ep_alive[inj->winners[j]])
            inj->winners[keep++] = inj->winners[j];
    return keep;
}

static int64_t alive_destinations(const Injector *inj, int64_t k)
{
    int64_t keep = 0;
    for (int64_t j = 0; j < k; j++) {
        if (!inj->router_alive[inj->dsts[j]])
            continue;
        inj->winners[keep] = inj->winners[j];
        inj->srcs[keep] = inj->srcs[j];
        inj->dsts[keep++] = inj->dsts[j];
    }
    return keep;
}

/* Returns SPAN_DONE at `until` — or, closed loop, at the end of the
 * cycle that completed the workload — or earlier with out->now = the
 * cycle not yet started: SPAN_GROW / SPAN_FLUSH at a cycle boundary,
 * before anything is drawn or popped, when the pools and scratch lack
 * room for the cycle's out->need packets (E for a Bernoulli draw, the
 * whole ready queue closed loop) or the sample buffers for E more tails
 * — Python makes room and calls again — and SPAN_TOO_LONG where the
 * per-cycle path raises.  The counters in `out` accumulate across
 * calls. */
int64_t kcycles(SimState *st, const Selector *sel, bitgen_t *bg,
                const Injector *inj, const Workload *wl,
                int64_t now, int64_t until, SpanOut *out)
{
    int64_t E = st->E, ps = st->ps, W = sel->width, fm = st->fault_mode;
    const int64_t *paths = sel->work, *lens = scratch(sel, 0);
    for (; now < until; now++) {
        out->now = now;
        int64_t k = 0;
        if (wl) {
            k = ready_packets(wl);
            if (k > inj->cap || k > sel->cap
                    || *st->free_top < k * ps || *st->pkt_free_top < k) {
                out->need = k;
                return SPAN_GROW;
            }
        } else if (inj->prob > 0.0
                && (*st->free_top < E * ps || *st->pkt_free_top < E)) {
            out->need = E;
            return SPAN_GROW;
        }
        if (out->samples + E > inj->sample_cap)
            return SPAN_FLUSH;

        /* Step 1.  Closed loop: the ready queue.  Open loop:
         * rng.random(E) < prob over every endpoint — dead ones just
         * cannot win — then the winners' destinations (one bounded draw
         * each, in endpoint order), dead ones blackholed. */
        if (wl) {
            pop_ready(wl, inj);
        } else if (inj->prob > 0.0) {
            for (int64_t e = 0; e < E; e++)
                if (bg->next_double(bg->state) < inj->prob)
                    inj->winners[k++] = e;
            if (inj->ep_alive)
                k = alive_winners(inj, k);
            for (int64_t j = 0; j < k; j++) {
                int64_t src = st->ep_router[inj->winners[j]];
                int64_t at = inj->pos[src];
                if (!inj->permutation) {
                    int64_t d = draw(bg, inj->n_term - 1);
                    at = d < at ? d : d + 1;
                }
                inj->srcs[j] = src;
                inj->dsts[j] = inj->table[at];
            }
            if (inj->router_alive) {
                int64_t live = alive_destinations(inj, k);
                out->blackholed += k - live;
                k = live;
            }
        }
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
                       max_len * sizeof(int64_t));
                st->pkt_len[pid] = lens[j];
                st->pkt_dst[pid] = paths[j * W + lens[j] - 1];
                st->pkt_t_created[pid] = now;
                st->pkt_measured[pid] = (int8_t)inj->measuring;
            }
            if (fm)
                for (int64_t j = 0; j < k; j++) {
                    st->pkt_live[inj->slots[j]] = ps;
                    st->pkt_damaged[inj->slots[j]] = 0;
                }
            if (wl)
                /* The message's source router deals its endpoints out
                 * round-robin, packet by packet in batch order. */
                for (int64_t j = 0; j < k; j++) {
                    int64_t r = inj->srcs[j];
                    st->pkt_msg[inj->slots[j]] = inj->mids[j];
                    inj->winners[j] =
                        st->ep_off[r] + wl->inj_rr[r]++ % st->conc[r];
                }
            kinject(st, now, k, inj->slots, inj->winners);
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
            inj->lat[out->samples] = now - st->pkt_t_created[pid];
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
"""

_ENV = "REPRO_FLAT_KERNEL"
_CACHE_ENV = "REPRO_KERNEL_CACHE"

_cached = False
_module = None
_diagnosed: set = set()


def kernel_enabled() -> bool:
    """Whether the environment allows using the C kernel."""
    return not env_disabled(_ENV)


def _diagnose(reason: str, what: str = "cycle") -> None:
    """One-line stderr note the first time a fallback cause is hit.

    Keyed by reason so an explicit ``REPRO_FLAT_KERNEL=0`` and a missing
    compiler each announce themselves exactly once per process — the
    numpy path is bit-identical, but silently losing ~an order of
    magnitude of speed is worth a line.
    """
    if reason not in _diagnosed:
        _diagnosed.add(reason)
        print(
            f"repro.flitsim: C {what} kernel unavailable ({reason}); "
            f"using the numpy {what} path",
            file=sys.stderr,
        )


@contextlib.contextmanager
def numpy_fallback():
    """Force the numpy cycle path for simulators built inside the block.

    Sets ``REPRO_FLAT_KERNEL=0`` for the duration; :func:`load_kernel`
    re-reads the toggle on every call, so the compiled module stays
    cached and simulators built outside the block are unaffected.
    """
    old = os.environ.get(_ENV)
    os.environ[_ENV] = "0"
    try:
        yield
    finally:
        if old is None:
            os.environ.pop(_ENV, None)
        else:
            os.environ[_ENV] = old


def _cache_dir() -> str:
    return os.environ.get(_CACHE_ENV) or os.path.join(
        os.path.expanduser("~"), ".cache", "repro-flitsim"
    )


def _find_built(cache: str, name: str) -> "str | None":
    if not os.path.isdir(cache):
        return None
    for entry in os.listdir(cache):
        if entry.startswith(name) and entry.endswith((".so", ".pyd", ".dylib")):
            return os.path.join(cache, entry)
    return None


#: the compiler flags every build uses
_COMPILE_ARGS = ("-O2",)
#: the environment's build variables, which setuptools applies to the
#: cffi build on top of :data:`_COMPILE_ARGS`
_BUILD_ENV = ("CC", "CFLAGS", "CPPFLAGS", "LDFLAGS")


def _module_name() -> str:
    """The cached build's module name: a hash of everything it is built
    from — the C source, the cffi prototypes, the compiler flags and the
    environment's build variables (empty when unset) — so a change to
    any of them compiles afresh instead of loading a stale ``.so``."""
    env = (os.environ.get(var, "") for var in _BUILD_ENV)
    digest = hashlib.sha256()
    for part in (_C_SOURCE, _CDEF, *_COMPILE_ARGS, *env):
        digest.update(part.encode() + b"\0")
    return f"_repro_flit_kernel_{digest.hexdigest()[:16]}"


def _build(cache: str, name: str) -> "str | None":
    import cffi

    ffi = cffi.FFI()
    ffi.cdef(_CDEF)
    ffi.set_source(name, _C_SOURCE, extra_compile_args=list(_COMPILE_ARGS))
    os.makedirs(cache, exist_ok=True)
    # Build in a private directory, then move into the shared cache —
    # concurrent workers may race to compile the same source hash.
    with tempfile.TemporaryDirectory(dir=cache) as tmp:
        built = ffi.compile(tmpdir=tmp)
        target = os.path.join(cache, os.path.basename(built))
        if not os.path.exists(target):
            shutil.move(built, target)
        return target


def bitgen_of(ffi, rng):
    """``bitgen_t *`` of a :class:`numpy.random.Generator`'s bit stream.

    The pointer lives as long as ``rng.bit_generator``; callers keep the
    generator referenced while C holds it.
    """
    return ffi.cast("bitgen_t *", rng.bit_generator.ctypes.bit_generator.value)


#: struct ctype -> {field: None for a scalar, else (the C array type of
#: its buffer, the numpy dtype — or record size — the buffer must have)}
_SCHEMAS: dict = {}


def _schema(ffi, struct) -> dict:
    """What each field of ``struct`` takes, read off its C declaration."""
    if struct not in _SCHEMAS:
        _SCHEMAS[struct] = schema = {}
        for name, field in struct.fields:
            item = field.type.item if field.type.kind == "pointer" else None
            if item is None:
                schema[name] = None
            elif item.kind == "struct":  # a record: any dtype of its size
                schema[name] = (f"{item.cname}[]", ffi.sizeof(item))
            else:  # numpy bool is one byte; the kernel reads/writes int8
                want = "bool" if item.cname == "int8_t" else item.cname[:-2]
                schema[name] = (f"{item.cname}[]", np.dtype(want))
    return _SCHEMAS[struct]


def bind_struct(ffi, ptr, fields: dict) -> dict:
    """Set fields of the C struct ``*ptr``; returns the keep-alive views.

    The C declaration is the only schema.  A scalar field is assigned as
    given; a pointer field takes ``None`` (NULL) or a C-contiguous array
    whose dtype matches the pointee — ``bool`` for ``int8_t``, a record
    dtype of equal ``ffi.sizeof`` for a struct such as ``Flit`` — and
    anything else raises ``TypeError`` naming the struct and the field.
    Fields left out keep their value (``ffi.new`` zero-fills: NULL).
    The result maps each pointer field to its cffi view (``None``: NULL),
    which keeps the array alive; hold it as long as the binding stands.
    """
    struct = ffi.typeof(ptr).item
    schema = _schema(ffi, struct)
    refs = {}
    for name, value in fields.items():
        if name not in schema:
            raise TypeError(f"{struct.cname} has no field {name!r}")
        if schema[name] is None:
            setattr(ptr, name, value)
            continue
        ctype, want = schema[name]
        if value is not None:
            dtype, record = value.dtype, type(want) is int
            if record:
                fits = dtype.names is not None and dtype.itemsize == want
            else:
                fits = dtype is want or dtype == want
            if not (fits and value.flags.c_contiguous):
                what = f"{want}-byte {ctype[:-2]} records" if record else want
                raise TypeError(
                    f"{struct.cname}.{name}: kernel buffer must be "
                    f"C-contiguous {what}, got {dtype} "
                    f"(c_contiguous={value.flags.c_contiguous})"
                )
            value = ffi.from_buffer(ctype, value)
        setattr(ptr, name, ffi.NULL if value is None else value)
        refs[name] = value
    return refs


def _draws_match(module) -> bool:
    """Whether the C draws reproduce ``Generator``'s on this numpy.

    Two throw-away generators from one seed: a few hundred bounded draws
    through each, both as one array-of-bounds call (the ECMP tie draw)
    and as ``integers(bound, size=)`` calls (the Valiant intermediates,
    the uniform destinations), interleaved with ``random(size)`` blocks
    (the Bernoulli draw of ``kcycles``) the way a simulated cycle
    alternates them.  Values and the final bit-generator state must
    agree — the state covers draws that consume the stream without
    changing a value, and a 32-bit half left buffered across a double.
    """
    ffi, lib = module.ffi, module.lib
    ours = np.random.Generator(np.random.PCG64(0))
    theirs = np.random.Generator(np.random.PCG64(0))
    bounds = np.tile(
        np.array([1, 2, 3, 7, 57, 2**31 + 1], dtype=np.int64), 40
    )
    blocks = [bounds] + [np.full(15, b, dtype=np.int64) for b in bounds[:6]]
    bg = bitgen_of(ffi, ours)
    for i, block in enumerate(blocks):
        want = theirs.integers(block if i == 0 else int(block[0]), size=block.size)
        got = np.empty_like(block)
        lib.kdraws(
            bg, block.size, ffi.from_buffer("int64_t[]", block),
            ffi.from_buffer("int64_t[]", got),
        )
        uniform = np.empty(57)
        lib.kdoubles(bg, uniform.size, ffi.from_buffer("double[]", uniform))
        if not (
            np.array_equal(got, want)
            and np.array_equal(uniform, theirs.random(uniform.size))
        ):
            return False
    return ours.bit_generator.state == theirs.bit_generator.state


def _check_draws(module) -> bool:
    """Run the draw self-test; a failure costs the draws, not the kernel.

    ``kinject``/``kfeed``/``kroute`` draw nothing, so they stay in
    service either way; simulators consult ``module.select_ok`` before
    offering compiled route selection or whole-cycle spans (the numpy
    bodies and the per-cycle path are bit-identical, so a decline only
    costs speed).
    """
    try:
        if _draws_match(module):
            return True
        reason = "its draws differ from numpy's Generator.integers/random"
    except Exception as exc:
        reason = f"draw self-test failed: {type(exc).__name__}: {exc}"
    _diagnose(reason, what="route-selection")
    return False


def load_kernel():
    """The compiled kernel module (``.ffi``/``.lib``), or ``None``.

    ``REPRO_FLAT_KERNEL`` is re-read on every call (so the cycle path
    can be toggled per simulator construction — see
    :func:`numpy_fallback`); the build itself is attempted once per
    process and memoized.  Failures of any kind (no cffi, no compiler)
    degrade to ``None`` with a one-line diagnostic — the numpy path is
    always available and bit-identical.
    """
    global _cached, _module
    if not kernel_enabled():
        _diagnose(f"disabled via {_ENV}={os.environ.get(_ENV)}")
        return None
    if _cached:
        return _module
    _cached = True
    try:
        name = _module_name()
        cache = _cache_dir()
        path = _find_built(cache, name)
        if path is None:
            path = _build(cache, name)
        spec = importlib.util.spec_from_file_location(name, path)
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module
        spec.loader.exec_module(module)
        _module = module
        module.select_ok = _check_draws(module)
    except ImportError:
        _module = None
        _diagnose("cffi not installed")
    except Exception as exc:
        _module = None
        _diagnose(f"build failed: {type(exc).__name__}: {exc}")
    return _module
