//! The query router: the front-end that makes a fleet of shard processes
//! answer exactly like one in-process [`ShardedDb`](cpnn_core::ShardedDb).
//!
//! ## Soundness of the router-side merge
//!
//! Equivalence rests on three reused seams, not on new algorithms:
//!
//! 1. **Selection** — the router keeps each shard's exact extent and
//!    object count (refreshed from every reply's status) and runs the
//!    *same* [`select_overlapping`] the in-process database runs. It then
//!    asks the selected shards in **bound groups**: every shard tied at
//!    the smallest remaining bound is sent its request before any of the
//!    group's replies is read (so they filter in parallel), and before
//!    each group the router computes the [`Horizon`] — the `k`-th
//!    smallest far point over the items received so far. Once the next
//!    bound exceeds it, the rest are skipped. This asks a superset of the
//!    shards the in-process
//!    [`fan_out_filter`](cpnn_core::pipeline::fan_out_filter) visits:
//!    that walk skips a shard only when its bound exceeds the horizon
//!    over the shards it visited, and a shard the router fetched but the
//!    walk would skip has every far point above that horizon (far ≥ near
//!    ≥ bound), so it never moves the `k`-th far. The router's horizon
//!    before a group therefore equals the walk's horizon there, and when
//!    it stops, the walk skips every later shard as well. A selected
//!    shard that the horizon still needs and that cannot answer is a
//!    typed [`RouterError::ShardUnavailable`] — the router refuses to
//!    under-approximate a candidate set, so degradation is never a wrong
//!    answer; a dead shard the horizon excludes is never asked.
//! 2. **Merge** — shard replies carry raw filter output (bit-exact
//!    histograms, see [`crate::wire`]); [`merge_replies`] sorts them by
//!    `(mindist, shard index)` and moves each reply's items into the
//!    *same* [`fan_out_filter`](cpnn_core::pipeline::fan_out_filter),
//!    which drops the fetched extras by the skip rule above — so the
//!    merged survivor set is a pure function of the reply *contents*,
//!    independent of arrival order (property-tested with shuffled
//!    replies), and equal to the in-process fan-out's.
//! 3. **Evaluation** — the merged candidates run once, router-side,
//!    through the *same* [`CandidateSet::from_distances`] +
//!    [`evaluate_candidates`](pipeline::evaluate_candidates) the
//!    single-process pipeline uses. Verify/refine never runs on a shard.
//!
//! Updates route by the *same* [`slab_of`] arithmetic over the *same*
//! persisted boundaries, against a router-owned id map (seeded and
//! resynced from shard [`Request::Ids`] replies) that reproduces the
//! cross-shard duplicate check of [`ShardedDb::insert`](cpnn_core::ShardedDb::insert)
//! and the remove-absent no-op of `with_removed`.

use std::collections::HashMap;
use std::io::BufReader;
use std::marker::PhantomData;
use std::time::{Duration, Instant};

use cpnn_core::candidate::CandidateSet;
use cpnn_core::pipeline::{self, CpnnResult, Filtered, Horizon, QueryStats};
use cpnn_core::shard::{select_overlapping, slab_of, Extent};
use cpnn_core::{
    CoreError, DistanceDistribution, ObjectId, PipelineConfig, QueryScratch, QuerySpec,
    ServerStats, UpdateOp,
};

use crate::map::ShardMap;
use crate::net::ShardStream;
use crate::wire::{
    read_frame, write_frame, Request, Response, ShardProcessStats, ShardStatus, WireError,
};
use crate::RoutedModel;

/// Fault-handling knobs for the router's shard connections.
#[derive(Debug, Clone, Copy)]
pub struct RouterConfig {
    /// Per-request socket timeout (read and write); a hung shard
    /// surfaces as a timed-out request, not a wedged router.
    pub timeout: Duration,
    /// Retry attempts after the first failure of an idempotent request
    /// (each retried on a fresh connection). Update bursts are **not**
    /// idempotent and are never resent — a reply lost after the burst
    /// was sent might already be applied, and a blind resend would
    /// double-apply it.
    pub retries: u32,
    /// Base reconnect backoff; attempt `n` sleeps `n × backoff`.
    pub backoff: Duration,
}

impl Default for RouterConfig {
    fn default() -> Self {
        Self {
            timeout: Duration::from_secs(5),
            retries: 2,
            backoff: Duration::from_millis(50),
        }
    }
}

/// Typed router failures — the degradation taxonomy. A dead shard is
/// never a panic and never a silently smaller answer.
#[derive(Debug)]
pub enum RouterError {
    /// A shard did not answer within the configured retry budget
    /// (connection refused, timed out, or torn mid-reply). The query or
    /// burst that needed it fails typed; other shards are unaffected.
    ShardUnavailable {
        /// Index of the shard in the shard map.
        shard: usize,
        /// What the last attempt observed.
        detail: String,
    },
    /// A shard answered with a typed remote error (bad query, filter
    /// failure). The connection is healthy; nothing is retried.
    Shard {
        /// Index of the shard in the shard map.
        shard: usize,
        /// The remote error text.
        message: String,
    },
    /// A shard answered with a structurally invalid or unexpected frame
    /// — a protocol bug or version skew, not a transient fault.
    Protocol {
        /// Index of the shard in the shard map.
        shard: usize,
        /// What was wrong with the reply.
        detail: String,
    },
    /// Router-side evaluation of the merged candidates failed (the same
    /// errors single-process evaluation can produce).
    Query(CoreError),
}

impl std::fmt::Display for RouterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::ShardUnavailable { shard, detail } => {
                write!(f, "shard {shard} unavailable: {detail}")
            }
            Self::Shard { shard, message } => write!(f, "shard {shard} error: {message}"),
            Self::Protocol { shard, detail } => {
                write!(f, "shard {shard} protocol violation: {detail}")
            }
            Self::Query(e) => write!(f, "query evaluation failed: {e}"),
        }
    }
}

impl std::error::Error for RouterError {}

impl From<CoreError> for RouterError {
    fn from(e: CoreError) -> Self {
        Self::Query(e)
    }
}

/// Router-side counters.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RouterStats {
    /// Queries answered (a query that failed typed is not counted).
    pub queries: u64,
    /// Filter requests fanned out: one per shard a query asked — the
    /// bound groups fetched before the horizon stopped the walk.
    pub fanned_out: u64,
    /// Non-empty shards a query did not ask: those selection proved
    /// irrelevant before any bytes moved, plus selected shards the
    /// horizon skipped after earlier replies arrived.
    pub pruned: u64,
    /// Idempotent requests retried after a failure.
    pub retries: u64,
    /// Successful redials of a shard connection.
    pub reconnects: u64,
    /// Update bursts forwarded (one per shard touched per burst).
    pub bursts: u64,
    /// Individual update ops forwarded to shards.
    pub ops_forwarded: u64,
}

/// One burst's outcome, mirroring the single-process
/// [`FlushReport`](cpnn_core::FlushReport) + per-op
/// [`UpdateOutcome`](cpnn_core::UpdateOutcome)s.
#[derive(Debug)]
pub struct UpdateReport {
    /// The router's published version after the burst (bumped only when
    /// at least one op applied, matching `flush_writes`).
    pub version: u64,
    /// Total objects across the fleet after the burst.
    pub objects: u64,
    /// Per-op outcome, in submission order.
    pub outcomes: Vec<Result<(), String>>,
    /// Ops in the burst.
    pub batch: usize,
}

/// Fleet-wide counters: the router's own, plus every shard's, summed.
#[derive(Debug, Clone)]
pub struct ClusterStats {
    /// Total objects across the fleet.
    pub objects: u64,
    /// Wire filter requests served, summed over shards.
    pub shard_filters: u64,
    /// Hosted-server counters, summed over shards — except `served`,
    /// which is the router's own answered-query count (shards answer
    /// filter requests, never whole queries).
    pub server: ServerStats,
    /// The router's own counters.
    pub router: RouterStats,
}

/// One shard's reply to a fan-out, paired with the selection metadata
/// the merge needs. Public so the merge-determinism property test can
/// build shuffled reply sets directly.
#[derive(Debug)]
pub struct ShardReply {
    /// `mindist(q, shard extent)` — the bound selection computed.
    pub near: f64,
    /// Shard index (the deterministic tie-break).
    pub shard: usize,
    /// The shard's raw filter output.
    pub items: Vec<(ObjectId, DistanceDistribution)>,
}

/// Merge shard filter replies into one [`Filtered`] — the routed twin of
/// [`ShardedDb::filter`](cpnn_core::ShardedDb). Replies are first sorted
/// by `(near, shard index)` — the exact order [`select_overlapping`]
/// yields — then moved through the real
/// [`fan_out_filter`](cpnn_core::pipeline::fan_out_filter) (same horizon
/// bookkeeping, same skip rule), so the result is independent of the
/// order replies arrived in: shuffling the input changes nothing
/// (property-tested in `tests/proptest_router.rs`).
pub fn merge_replies(mut replies: Vec<ShardReply>, k: usize) -> cpnn_core::Result<Filtered> {
    replies.sort_by(|a, b| a.near.total_cmp(&b.near).then(a.shard.cmp(&b.shard)));
    pipeline::fan_out_filter(
        replies.into_iter().map(|r| {
            let source = move || {
                Ok(Filtered {
                    items: r.items,
                    filter_time: Duration::ZERO,
                })
            };
            (r.near, source)
        }),
        k,
    )
}

/// A live connection to one shard (writer half + buffered reader half of
/// the same socket).
struct Connection {
    writer: ShardStream,
    reader: BufReader<ShardStream>,
}

/// Everything the router tracks about one shard.
struct ShardState {
    addr: crate::net::ShardAddr,
    conn: Option<Connection>,
    /// Last status the shard reported (exact extent + count: the inputs
    /// to selection, refreshed by every Hello and Update reply).
    objects: u64,
    extent: Option<Extent>,
}

/// The routing front-end. Owns the shard map, the per-shard connections,
/// and the authoritative id → shard map; runs merge + verify/refine
/// in-process. Single-threaded by design — one router is one client of
/// the fleet, and tests compare it against one in-process database.
pub struct QueryRouter<M: RoutedModel> {
    shards: Vec<ShardState>,
    axis: usize,
    bounds: Vec<f64>,
    /// id → owning shard, for the cross-shard duplicate check and
    /// remove routing. Seeded from `Ids` at connect, updated on applied
    /// ops, resynced from the shard on every reconnect.
    id_map: HashMap<u64, usize>,
    cfg: RouterConfig,
    pipeline: PipelineConfig,
    scratch: QueryScratch,
    version: u64,
    stats: RouterStats,
    _model: PhantomData<fn() -> M>,
}

impl<M: RoutedModel> QueryRouter<M> {
    /// Connect to every shard in `map`, handshake, and seed the id map.
    /// Evaluation of merged candidates runs under `pipeline` (use the
    /// same configuration as the shards' build for bit-for-bit parity
    /// with a single process).
    pub fn connect(
        map: &ShardMap,
        pipeline: PipelineConfig,
        cfg: RouterConfig,
    ) -> Result<Self, RouterError> {
        let mut router = Self {
            shards: map
                .addrs
                .iter()
                .map(|addr| ShardState {
                    addr: addr.clone(),
                    conn: None,
                    objects: 0,
                    extent: None,
                })
                .collect(),
            axis: map.axis,
            bounds: map.bounds.clone(),
            id_map: HashMap::new(),
            cfg,
            pipeline,
            scratch: QueryScratch::new(),
            version: 0,
            stats: RouterStats::default(),
            _model: PhantomData,
        };
        for shard in 0..router.shards.len() {
            router.ensure_connected(shard)?;
        }
        Ok(router)
    }

    /// The router's published version.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Total objects across the fleet, per the latest shard statuses.
    pub fn objects(&self) -> u64 {
        self.shards.iter().map(|s| s.objects).sum()
    }

    /// The router's own counters.
    pub fn router_stats(&self) -> &RouterStats {
        &self.stats
    }

    /// Dial, handshake, and resync the id map for `shard` if it has no
    /// live connection. Redial failures burn through the retry budget
    /// with linear backoff before degrading to
    /// [`RouterError::ShardUnavailable`].
    fn ensure_connected(&mut self, shard: usize) -> Result<(), RouterError> {
        if self.shards[shard].conn.is_some() {
            return Ok(());
        }
        let mut last = String::new();
        for attempt in 0..=self.cfg.retries {
            if attempt > 0 {
                std::thread::sleep(self.cfg.backoff * attempt);
                self.stats.retries += 1;
            }
            match self.dial(shard) {
                Ok(()) => {
                    self.stats.reconnects += 1;
                    return Ok(());
                }
                Err(e) => last = e,
            }
        }
        Err(RouterError::ShardUnavailable {
            shard,
            detail: last,
        })
    }

    /// One dial + handshake + id resync attempt.
    fn dial(&mut self, shard: usize) -> Result<(), String> {
        let stream = ShardStream::connect(&self.shards[shard].addr).map_err(|e| e.to_string())?;
        stream
            .set_timeouts(Some(self.cfg.timeout))
            .map_err(|e| e.to_string())?;
        let reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
        let mut conn = Connection {
            writer: stream,
            reader,
        };
        let status = match exchange::<M>(&mut conn, &Request::Hello).map_err(|e| e.to_string())? {
            Response::Hello(status) => status,
            Response::Error(msg) => return Err(format!("handshake rejected: {msg}")),
            _ => return Err("unexpected handshake reply".into()),
        };
        let ids = match exchange::<M>(&mut conn, &Request::Ids).map_err(|e| e.to_string())? {
            Response::Ids(ids) => ids,
            Response::Error(msg) => return Err(format!("id sync rejected: {msg}")),
            _ => return Err("unexpected id-sync reply".into()),
        };
        // Resync: drop every stale entry owned by this shard, then
        // re-seed from the authoritative list. A shard that lost queued
        // (unflushed) writes in a crash thereby also loses their id-map
        // entries, keeping router placement consistent with what the
        // shard actually recovered.
        self.id_map.retain(|_, owner| *owner != shard);
        self.id_map.extend(ids.into_iter().map(|id| (id, shard)));
        self.apply_status(shard, &status);
        self.shards[shard].conn = Some(conn);
        Ok(())
    }

    fn apply_status(&mut self, shard: usize, status: &ShardStatus) {
        self.shards[shard].objects = status.objects;
        self.shards[shard].extent = status.extent.clone();
        self.version = self.version.max(status.version);
    }

    /// Send `req` and read its reply on `shard`'s live connection; any
    /// wire failure drops the connection and is returned raw for the
    /// caller's retry policy.
    fn exchange_once(&mut self, shard: usize, req: &Request<M>) -> Result<Response, WireError> {
        let conn = self.shards[shard]
            .conn
            .as_mut()
            .expect("exchange_once requires a live connection");
        let result = exchange::<M>(conn, req);
        if result.is_err() {
            self.shards[shard].conn = None;
        }
        result
    }

    /// Send an **idempotent** request with the full retry + reconnect
    /// policy, degrading to a typed error when the budget is exhausted.
    fn request_idempotent(
        &mut self,
        shard: usize,
        req: &Request<M>,
    ) -> Result<Response, RouterError> {
        let mut last: Option<WireError> = None;
        for attempt in 0..=self.cfg.retries {
            if attempt > 0 {
                std::thread::sleep(self.cfg.backoff * attempt);
                self.stats.retries += 1;
            }
            self.ensure_connected(shard)?;
            match self.exchange_once(shard, req) {
                Ok(resp) => return Ok(resp),
                Err(e) => last = Some(e),
            }
        }
        let last = last.expect("at least one attempt ran");
        if last.is_disconnect() {
            Err(RouterError::ShardUnavailable {
                shard,
                detail: last.to_string(),
            })
        } else {
            Err(RouterError::Protocol {
                shard,
                detail: last.to_string(),
            })
        }
    }

    /// Answer one constrained query: select → fan out → merge → evaluate
    /// once. Bit-for-bit the single-process answer (see the module docs
    /// for the argument, `tests/proptest_router.rs` for the proof).
    pub fn query(&mut self, q: &M::Query, spec: &QuerySpec) -> Result<CpnnResult, RouterError> {
        // Validate the spec before any wire traffic, mirroring the
        // single-process pipeline's pre-filter validation.
        cpnn_core::Classifier::new(spec.threshold, spec.tolerance).map_err(RouterError::Query)?;
        let k = spec.k.max(1);
        let start = Instant::now();
        let summaries: Vec<(Option<Extent>, usize)> = self
            .shards
            .iter()
            .map(|s| (s.extent.clone(), s.objects as usize))
            .collect();
        let selected = select_overlapping(&summaries, q, k);
        let nonempty = summaries.iter().filter(|(e, _)| e.is_some()).count();
        self.stats.pruned += (nonempty - selected.len()) as u64;
        let select_time = start.elapsed();

        // Fan out by bound group, nearest first, until the horizon over
        // the replies in hand excludes the next bound (the module docs
        // argue why this asks a superset of the in-process fan-out).
        let req = Request::<M>::Filter {
            coords: crate::query_coords::<M>(q),
            k: k as u64,
        };
        let mut horizon = Horizon::new(k);
        let mut replies: Vec<ShardReply> = Vec::with_capacity(selected.len());
        let mut next = 0;
        while next < selected.len() && selected[next].0 <= horizon.get() {
            let bound = selected[next].0;
            let len = selected[next..]
                .iter()
                .take_while(|&&(near, _)| near == bound)
                .count();
            let fetched = replies.len();
            self.fetch_group(&selected[next..next + len], &req, &mut replies)?;
            for reply in &replies[fetched..] {
                for (_, dist) in &reply.items {
                    horizon.push(dist.far());
                }
            }
            next += len;
        }
        self.stats.pruned += (selected.len() - next) as u64;

        // Merge through the real fan-out seam, then evaluate once.
        let mut filtered = merge_replies(replies, k).map_err(RouterError::Query)?;
        filtered.filter_time += select_time;
        let elapsed = start.elapsed();
        let mut stats = QueryStats {
            total_objects: summaries.iter().map(|(_, n)| n).sum(),
            ..Default::default()
        };
        stats.filter_time = filtered.filter_time.min(elapsed);
        let init_from_filter = elapsed.saturating_sub(stats.filter_time);
        let assemble = Instant::now();
        let cands = CandidateSet::from_distances(filtered.items, k);
        stats.candidates = cands.len();
        stats.init_time = init_from_filter + assemble.elapsed();
        let result =
            pipeline::evaluate_candidates(&cands, spec, &self.pipeline, &mut self.scratch, stats);
        self.stats.queries += u64::from(result.is_ok());
        result.map_err(RouterError::Query)
    }

    /// Ask every shard of one bound group for its filter output: write
    /// every request before reading any reply, so the group's shards
    /// filter in parallel, then append the replies to `replies` in group
    /// order. A lost reply is retried on a fresh connection — Filter is
    /// idempotent — and a shard that stays silent fails the query typed:
    /// dropping its candidates could under-approximate the answer. On a
    /// failure every request still in flight loses its connection, so no
    /// stale reply can answer a later query.
    fn fetch_group(
        &mut self,
        group: &[(f64, usize)],
        req: &Request<M>,
        replies: &mut Vec<ShardReply>,
    ) -> Result<(), RouterError> {
        let mut sent = Vec::with_capacity(group.len());
        for &(_, shard) in group {
            self.stats.fanned_out += 1;
            let ok = self.shards[shard]
                .conn
                .as_mut()
                .is_some_and(|conn| write_frame(&mut conn.writer, &req.encode()).is_ok());
            if !ok {
                self.shards[shard].conn = None;
            }
            sent.push(ok);
        }
        let mut failure = None;
        for (&(near, shard), sent) in group.iter().zip(sent) {
            if failure.is_some() {
                if sent {
                    self.shards[shard].conn = None;
                }
                continue;
            }
            match self.filter_reply(shard, sent, req) {
                Ok(items) => replies.push(ShardReply { near, shard, items }),
                Err(e) => failure = Some(e),
            }
        }
        failure.map_or(Ok(()), Err)
    }

    /// `shard`'s filter output: the reply to the request already `sent`
    /// on its connection, or — when it was not sent or its reply was lost
    /// — the sequential retry path (fresh connection, full budget).
    fn filter_reply(
        &mut self,
        shard: usize,
        sent: bool,
        req: &Request<M>,
    ) -> Result<Vec<(ObjectId, DistanceDistribution)>, RouterError> {
        let resp = match sent.then(|| self.read_reply(shard)) {
            Some(Ok(resp)) => resp,
            _ => self.request_idempotent(shard, req)?,
        };
        match resp {
            Response::Candidates { version, items } => {
                self.version = self.version.max(version);
                Ok(items)
            }
            Response::Error(message) => Err(RouterError::Shard { shard, message }),
            _ => Err(RouterError::Protocol {
                shard,
                detail: "expected a Candidates reply".into(),
            }),
        }
    }

    /// Read one frame + decode on `shard`'s live connection.
    fn read_reply(&mut self, shard: usize) -> Result<Response, WireError> {
        let conn = self.shards[shard]
            .conn
            .as_mut()
            .expect("read_reply requires a live connection");
        let result = read_reply_frame(&mut conn.reader);
        if result.is_err() {
            self.shards[shard].conn = None;
        }
        result
    }

    /// Forward one coalesced burst, routing each op to its owning shard
    /// by the same slab arithmetic and duplicate/no-op semantics as the
    /// in-process database (see the module docs). Returns a typed error
    /// — applying *none* of the remaining ops — when an owning shard is
    /// unavailable; Update requests are never resent (not idempotent).
    pub fn update(&mut self, ops: Vec<UpdateOp<M>>) -> Result<UpdateReport, RouterError> {
        let batch = ops.len();
        let base = self.version;
        let mut outcomes: Vec<Option<Result<(), String>>> = Vec::with_capacity(batch);
        outcomes.resize_with(batch, || None);
        // Simulate placement against the id map, exactly as a sequential
        // in-process burst would resolve: a duplicate insert fails
        // locally, a remove of an absent id succeeds as a no-op, and
        // intra-burst interactions (insert-then-remove of the same id)
        // resolve in submission order.
        // Per shard: (op index, tentative insert id to retract on
        // failure, the op itself).
        type RoutedOp<M> = (usize, Option<u64>, UpdateOp<M>);
        let mut per_shard: Vec<Vec<RoutedOp<M>>> =
            (0..self.shards.len()).map(|_| Vec::new()).collect();
        for (i, op) in ops.into_iter().enumerate() {
            match op {
                UpdateOp::Insert(object) => {
                    let id = M::object_id(&object).0;
                    if self.id_map.contains_key(&id) {
                        outcomes[i] = Some(Err(CoreError::DuplicateObjectId(id).to_string()));
                        continue;
                    }
                    let center = M::object_extent(&object).center(self.axis);
                    let shard = slab_of(&self.bounds, center);
                    self.id_map.insert(id, shard);
                    per_shard[shard].push((i, Some(id), UpdateOp::Insert(object)));
                }
                UpdateOp::Remove(id) => match self.id_map.remove(&id.0) {
                    Some(shard) => per_shard[shard].push((i, None, UpdateOp::Remove(id))),
                    // Absent id: a no-op success, mirroring
                    // `with_removed` (and the serve loop's behavior).
                    None => outcomes[i] = Some(Ok(())),
                },
            }
        }
        for (shard, burst) in per_shard.into_iter().enumerate() {
            if burst.is_empty() {
                continue;
            }
            self.ensure_connected(shard)?;
            let mut indices = Vec::with_capacity(burst.len());
            let mut insert_ids = Vec::with_capacity(burst.len());
            let mut shard_ops = Vec::with_capacity(burst.len());
            for (i, id, op) in burst {
                indices.push(i);
                insert_ids.push(id);
                shard_ops.push(op);
            }
            self.stats.bursts += 1;
            self.stats.ops_forwarded += indices.len() as u64;
            let resp = match self.exchange_once(shard, &Request::Update(shard_ops)) {
                Ok(resp) => resp,
                Err(e) => {
                    // The burst may or may not have been applied; only a
                    // resync (on the next reconnect) knows. Drop this
                    // shard's tentative id-map entries now so they are
                    // re-derived from truth, and degrade typed.
                    self.id_map.retain(|_, owner| *owner != shard);
                    return Err(RouterError::ShardUnavailable {
                        shard,
                        detail: e.to_string(),
                    });
                }
            };
            match resp {
                Response::Update {
                    status,
                    outcomes: shard_outcomes,
                } => {
                    if shard_outcomes.len() != indices.len() {
                        return Err(RouterError::Protocol {
                            shard,
                            detail: "outcome count mismatch".into(),
                        });
                    }
                    for ((&i, insert_id), outcome) in
                        indices.iter().zip(&insert_ids).zip(shard_outcomes)
                    {
                        // A failed insert never landed: retract its
                        // tentative id-map entry.
                        if outcome.is_err() {
                            if let Some(id) = insert_id {
                                self.id_map.remove(id);
                            }
                        }
                        outcomes[i] = Some(outcome);
                    }
                    self.apply_status(shard, &status);
                }
                Response::Error(message) => {
                    return Err(RouterError::Shard { shard, message });
                }
                _ => {
                    return Err(RouterError::Protocol {
                        shard,
                        detail: "expected an Update reply".into(),
                    })
                }
            }
        }
        let outcomes: Vec<Result<(), String>> = outcomes
            .into_iter()
            .map(|o| o.expect("every op resolved locally or by a shard reply"))
            .collect();
        if outcomes.iter().any(|o| o.is_ok()) {
            // Publish: one version bump per burst with at least one
            // applied op, mirroring `flush_writes`. Each shard publishes
            // at most once per burst, from a version no later than `base`,
            // so the post-burst versions folded in above are at most
            // `base + 1` and must not add a second bump.
            self.version = self.version.max(base + 1);
        }
        Ok(UpdateReport {
            version: self.version,
            objects: self.objects(),
            outcomes,
            batch,
        })
    }

    /// Aggregate counters across the fleet (idempotent; retried).
    pub fn stats(&mut self) -> Result<ClusterStats, RouterError> {
        let mut shard_filters = 0u64;
        let mut server = ServerStats::default();
        for shard in 0..self.shards.len() {
            let resp = self.request_idempotent(shard, &Request::Stats)?;
            let ShardProcessStats { filters, server: s } = match resp {
                Response::Stats(stats) => stats,
                Response::Error(message) => return Err(RouterError::Shard { shard, message }),
                _ => {
                    return Err(RouterError::Protocol {
                        shard,
                        detail: "expected a Stats reply".into(),
                    })
                }
            };
            shard_filters += filters;
            server.updates += s.updates;
            server.coalesced_batches += s.coalesced_batches;
            server.applied_updates += s.applied_updates;
            server.cache_hits += s.cache_hits;
            server.cache_misses += s.cache_misses;
            server.shared_hits += s.shared_hits;
            server.outcome_hits += s.outcome_hits;
            server.wal_records += s.wal_records;
            server.checkpoints += s.checkpoints;
        }
        server.served = self.stats.queries;
        Ok(ClusterStats {
            objects: self.objects(),
            shard_filters,
            server,
            router: self.stats.clone(),
        })
    }
}

/// One request/reply exchange on an established connection.
fn exchange<M: RoutedModel>(
    conn: &mut Connection,
    req: &Request<M>,
) -> Result<Response, WireError> {
    write_frame(&mut conn.writer, &req.encode())?;
    read_reply_frame(&mut conn.reader)
}

fn read_reply_frame(reader: &mut BufReader<ShardStream>) -> Result<Response, WireError> {
    match read_frame(reader)? {
        Some(payload) => Response::decode(&payload),
        // A clean close where a reply was due is still a dead shard.
        None => Err(WireError::Torn("connection closed before reply")),
    }
}
