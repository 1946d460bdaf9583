/* The C kernel's structs and exported entry points (_kernel.c).
 *
 * cffi's cdef reads this file as it stands, so it holds no preprocessor
 * line; includers bring <stdint.h> first.  Every struct field is bound
 * from numpy arrays by name (_kernel.bind_struct reads each pointer's
 * type off these declarations), so a field added here needs one entry
 * in its binder's mapping. */

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
    /* Per (router, link port), Dp wide: the neighbor's router id and the
     * neighbor's port back. */
    int32_t *nbr;
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
    /* Per (router, out) row: flits queued (at most the pool's int32 rows)
     * and the round-robin input pointer. */
    int32_t *backlog, *rr;
    /* Per (router, link port, VC): free downstream slots, at most
     * vc_depth, which FlatSimulator holds to the int16 maximum. */
    int16_t *credits;
    Flit *pool;
    /* Source FIFOs hold packets, not flits: per endpoint, the head and
     * tail packet slots of a chain through pkt_next (-1: empty), and
     * src_seq, the sequence number of the head packet's next flit.  A
     * flit takes its pool row only as it leaves (kfeed). */
    int64_t *src_head, *src_tail, *src_seq, *ep_credit;
    int32_t *pkt_next;
    int8_t *pkt_len;
    int32_t *pkt_dst, *pkt_t_created;
    int32_t *pkt_msg;       /* owning workload message; closed loop only */
    _Bool *pkt_measured;
    int32_t *route_buf;
    /* Per packet slot, `stride` output ports: route_port[pid * stride + h]
     * is the port the packet leaves router route[h] by (OE: ejection),
     * resolved once by kinject. */
    int16_t *route_port;
    int32_t *pkt_free;
    int64_t *pkt_free_top;
    int32_t *free_stack;
    int64_t *free_top;
    Grant *grants;
    int32_t *tail_pids;     /* the cycle's ejected tails, grant order */
    /* Fault mode only (fault_mode == 0 leaves these NULL): the
     * (router, out) death mask, outstanding-flit counters and damaged
     * flags per packet slot, and fcnt = {dropped flits, tail drops} for
     * the current cycle. */
    _Bool *dead_row;
    int16_t *pkt_live;      /* at most ps, an int16 sequence count */
    _Bool *pkt_damaged;
    int64_t *fcnt;
    /* Closed loop under a retransmitting timeline only: FaultState's
     * retransmit queue, rt_len[0] messages long, with room for a cycle's
     * tail drops; a lost tail's message joins it in drop order. */
    int64_t *rt_queue, *rt_len;
    /* Cumulative per-link flit counters (n * Dp, indexed r * Dp + out):
     * NULL until link telemetry is attached, then bound once and never
     * re-pointed; every link grant counts, warmup and drain included
     * (observers difference snapshots), and the detached path costs
     * one predictable branch per forwarded flit. */
    int64_t *link_flits;
} SimState;

/* numpy's bit-generator ABI (numpy/random/bitgen.h, unchanged since
 * 1.17) and the route-selection state kselect runs on. */
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
    _Bool *alive;           /* NULL: every router alive */
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
    _Bool *ps_adj;
    int64_t *ps_up, *ps_down, *er_indptr, *er_indices, *ps_hops;
    /* Scratch: cap * (2 * width + 13) int32; rows are `width` wide. */
    int64_t cap, width;
    int32_t *work;
} Selector;

/* The injection process of one kcycles span (Bernoulli or, with a
 * Workload, the closed-loop message state machine), its counters, and
 * why it handed control back (lib.SPAN_* on the host side). */
enum { SPAN_DONE, SPAN_GROW, SPAN_TOO_LONG };
/* Cells of Workload.tally. */
enum { WL_READY_LEN, WL_COMPLETED, WL_FLIT_HOPS };
/* Injector.pattern: the stock TrafficPattern whose dest_routers it draws. */
enum { DEST_UNIFORM, DEST_PERMUTATION, DEST_HOTSPOT };

typedef struct {
    double prob;            /* load / packet_size; <= 0 draws nothing */
    int64_t measuring;      /* the window flag, constant over a span */
    /* Destination pick: table[pos[src]] for a permutation, else the
     * uniform draw over the n_term terminals in `table`, skipping the
     * source's own position — for hotspot after a coin per packet that,
     * below hot_fraction, sends it to router `hotspot` instead. */
    int64_t pattern, n_term, hotspot;
    double hot_fraction;
    int64_t *pos, *table;
    /* Scratch, `cap` each (cap >= E): per packet of the cycle its
     * endpoint, routers, slot and — closed loop — message. */
    int64_t cap;
    int32_t *winners, *srcs, *dsts, *slots, *mids;
    /* FaultState's survival masks while some router is dead, else NULL:
     * dead endpoints cannot win, dead destinations blackhole. */
    _Bool *ep_alive, *router_alive;
    /* The simulator's latency / hop-count columns (measured tails, in
     * grant order): SpanOut.samples entries are filled, sample_cap fit. */
    int32_t *lat, *hops;
    int64_t sample_cap;
} Injector;

/* WorkloadState's own arrays (workloads/state.py): the span reads and
 * writes the very object the numpy path and the reference engine drive
 * through its Python methods. */
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
    int64_t packets, injected_flits, ejected_flits;
    int64_t samples;        /* entries of Injector.lat / hops in use */
    /* Fault accounting, for FaultState's note_* once per call. */
    int64_t dropped_flits, tail_drops, damaged, blackholed, retransmitted;
    int64_t need;           /* SPAN_GROW: packets the cycle injects */
    int64_t max_len;        /* kselect's result at SPAN_TOO_LONG */
} SpanOut;

/* Entry points. */
int64_t kselect(const SimState *st, const Selector *sel, bitgen_t *bg,
                int64_t k, const int32_t *srcs, const int32_t *dsts);
int64_t kcycles(SimState *st, const Selector *sel, bitgen_t *bg,
                const Injector *inj, const Workload *wl,
                int64_t now, int64_t until, SpanOut *out);
void kdraws(bitgen_t *bg, int64_t k, const int64_t *bounds, int64_t *out);
void kdoubles(bitgen_t *bg, int64_t k, double *out);
