//! Preemptible multi-tenant execution of guest programs.
//!
//! The batch pipeline runs one program to completion per thread; a
//! long-running service runs *many concurrent requests* against one
//! compiled module and must bound what each of them can take. This
//! crate is that executor, built on [`ade_interp::ExecSession`]'s
//! fuel-quantum time slicing:
//!
//! * **admission + shedding** — at most [`ServeConfig::capacity`]
//!   requests are admitted per batch, in arrival order; the rest are
//!   refused with the typed error [`ExecError::Preempted`]
//!   (`reason = shed`) without executing a single guest instruction;
//! * **budgets** — each [`Request`] carries its own fuel and heap-cell
//!   budgets, enforced by the interpreter's existing limit machinery
//!   (`fuel` / `heap-cells` reason codes);
//! * **time slicing** — admitted sessions are partitioned over
//!   [`ServeConfig::workers`] OS threads and stepped round-robin, one
//!   [`ServeConfig::quantum`]-instruction grant at a time, so one hot
//!   request cannot monopolize a worker;
//! * **cancellation + deadlines** — a [`CancelFlag`] or an expired
//!   wall deadline is observed at the next quantum boundary and
//!   surfaces as `Preempted` with the stable reason code `cancelled`
//!   or `deadline`.
//!
//! Determinism: each request's execution is the deterministic
//! interpreter run — quantum slicing is observationally inert (the
//! interp crate's quantum-invariance suite pins this) — so a request's
//! response depends only on its own program, budgets, and deterministic
//! cancellation ([`Request::cancel_after_quanta`], a zero deadline, or
//! shedding). [`transcript`] renders exactly those fields, sorted by
//! request id: for such workloads the transcript is byte-identical
//! across runs, worker counts, and scheduling interleavings. Wall-clock
//! deadlines with nonzero slack are inherently racy and are reported
//! but never included in a transcript.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use ade_interp::{DecodedModule, ExecConfig, ExecError, ExecSession, Outcome, Step, StopReason};
use ade_obs::{FieldValue, FlightRecorder, MetricsRegistry, Tracer};

/// Upper bucket bounds (nanoseconds) for the per-tenant modeled-cost
/// histogram `serve_modeled_cost_ns`. Modeled cost is derived from the
/// deterministic op counts, so the histogram is scheduling-independent.
pub const MODELED_COST_BOUNDS_NS: [u64; 5] = [1_000, 10_000, 100_000, 1_000_000, 10_000_000];

/// Executor tuning.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Instructions granted per scheduling step. Smaller quanta mean
    /// finer-grained preemption and more per-step overhead; the
    /// response content is identical either way.
    pub quantum: u64,
    /// Worker threads stepping sessions. Each admitted request is
    /// pinned to worker `index % workers`, so the assignment (and every
    /// response) is independent of thread timing.
    pub workers: usize,
    /// Maximum requests admitted per [`Server::serve`] batch; the rest
    /// are shed in arrival order with reason code `shed`.
    pub capacity: usize,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            quantum: 4096,
            workers: 2,
            capacity: 64,
        }
    }
}

/// A shareable cancellation token: the caller keeps one clone and the
/// executor polls the other at every quantum boundary.
#[derive(Clone, Debug, Default)]
pub struct CancelFlag(Arc<AtomicBool>);

impl CancelFlag {
    /// A fresh, un-fired token.
    pub fn new() -> CancelFlag {
        CancelFlag::default()
    }

    /// Fires the token; the request stops at its next quantum boundary
    /// with reason code `cancelled`.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Release);
    }

    /// Whether the token has fired.
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Acquire)
    }
}

/// One guest execution request.
#[derive(Clone, Debug)]
pub struct Request {
    /// Caller-chosen identifier; echoed in the [`Response`] and used to
    /// order [`transcript`] lines.
    pub id: u64,
    /// Tenant the request is accounted to (default `0`); only used as a
    /// metrics label, never for scheduling.
    pub tenant: u64,
    /// Entry function name (without the `@`).
    pub entry: String,
    /// Per-request instruction budget (reason code `fuel` on trip).
    pub fuel: Option<u64>,
    /// Per-request collection-allocation budget (reason code
    /// `heap-cells` on trip).
    pub max_heap_cells: Option<usize>,
    /// Wall-clock deadline from admission. `Some(0)` expires before the
    /// first instruction — deterministic by construction; nonzero
    /// deadlines race the actual execution speed.
    pub deadline_ms: Option<u64>,
    /// External cancellation token, polled at quantum boundaries.
    pub cancel: Option<CancelFlag>,
    /// Deterministic cancellation hook: cancel after exactly this many
    /// granted quanta (`Some(0)` cancels before the first). Primarily
    /// for tests and smokes that need `cancelled` outcomes without
    /// wall-clock races.
    pub cancel_after_quanta: Option<u64>,
}

impl Request {
    /// A request for `entry` with no budgets, deadline, or cancellation.
    pub fn new(id: u64, entry: impl Into<String>) -> Request {
        Request {
            id,
            tenant: 0,
            entry: entry.into(),
            fuel: None,
            max_heap_cells: None,
            deadline_ms: None,
            cancel: None,
            cancel_after_quanta: None,
        }
    }

    /// Accounts the request to `tenant` in the metrics registry.
    #[must_use]
    pub fn with_tenant(mut self, tenant: u64) -> Request {
        self.tenant = tenant;
        self
    }

    /// Sets the instruction budget.
    #[must_use]
    pub fn with_fuel(mut self, fuel: u64) -> Request {
        self.fuel = Some(fuel);
        self
    }

    /// Sets the collection-allocation budget.
    #[must_use]
    pub fn with_max_heap_cells(mut self, cells: usize) -> Request {
        self.max_heap_cells = Some(cells);
        self
    }

    /// Sets the wall deadline (milliseconds from admission).
    #[must_use]
    pub fn with_deadline_ms(mut self, ms: u64) -> Request {
        self.deadline_ms = Some(ms);
        self
    }

    /// Attaches a cancellation token.
    #[must_use]
    pub fn with_cancel(mut self, flag: CancelFlag) -> Request {
        self.cancel = Some(flag);
        self
    }

    /// Cancels deterministically after `quanta` granted quanta.
    #[must_use]
    pub fn with_cancel_after_quanta(mut self, quanta: u64) -> Request {
        self.cancel_after_quanta = Some(quanta);
        self
    }
}

/// The executor's answer to one [`Request`].
#[derive(Debug)]
pub struct Response {
    /// The request's id.
    pub id: u64,
    /// The tenant the request was accounted to (echoed from
    /// [`Request::tenant`]).
    pub tenant: u64,
    /// Fuel quanta granted before the request finished (0 for shed
    /// requests and pre-execution failures).
    pub quanta: u64,
    /// The run's outcome: the interpreter [`Outcome`] on success, or
    /// the typed [`ExecError`] — guest trap, tripped budget, or
    /// [`ExecError::Preempted`] with reason `deadline` / `cancelled` /
    /// `shed`.
    pub outcome: Result<Box<Outcome>, ExecError>,
}

impl Response {
    /// Stable status code: `ok`, a trap/limit code, or a
    /// [`StopReason`] code.
    pub fn code(&self) -> &'static str {
        match &self.outcome {
            Ok(_) => "ok",
            Err(e) => e.code(),
        }
    }
}

/// A server executing requests against one shared decoded module.
#[derive(Debug)]
pub struct Server {
    decoded: Arc<DecodedModule>,
    base: ExecConfig,
    config: ServeConfig,
}

/// Per-request scheduling state owned by one worker.
struct Slot {
    id: u64,
    tenant: u64,
    session: ExecSession,
    quanta: u64,
    deadline: Option<Instant>,
    cancel: Option<CancelFlag>,
    cancel_after_quanta: Option<u64>,
}

impl Server {
    /// A server over `decoded`, running every request under `base`
    /// (selection defaults, optimization tiers) with per-request
    /// budget overrides.
    pub fn new(decoded: Arc<DecodedModule>, base: ExecConfig, config: ServeConfig) -> Server {
        Server {
            decoded,
            base,
            config: ServeConfig {
                workers: config.workers.max(1),
                quantum: config.quantum.max(1),
                ..config
            },
        }
    }

    /// Executes a batch of requests and returns one [`Response`] per
    /// request, in request order.
    pub fn serve(&self, requests: Vec<Request>) -> Vec<Response> {
        self.serve_traced(requests, &Tracer::disabled())
    }

    /// [`Server::serve`], emitting `serve`-category events (admit /
    /// shed / cancel / done) to `tracer`. Admission events are in
    /// request order; completion events are in completion order, which
    /// depends on scheduling — responses never do.
    pub fn serve_traced(&self, requests: Vec<Request>, tracer: &Tracer) -> Vec<Response> {
        self.serve_observed(requests, tracer, &MetricsRegistry::disabled(), None)
    }

    /// [`Server::serve_traced`], additionally publishing per-tenant
    /// accounting into `metrics` and preemption events into `flight`.
    ///
    /// All serve-layer recording happens after the batch completes, by
    /// walking the responses in request-id order, so both artifacts are
    /// deterministic for deterministic workloads regardless of worker
    /// count or scheduling:
    ///
    /// * counters `serve_requests_total`, `serve_responses_total{code}`
    ///   and `serve_quanta_total`, all labeled by tenant;
    /// * on success, `serve_fuel_ticks_total{tenant}` (sessions always
    ///   count ticks), the modeled-cost histogram
    ///   `serve_modeled_cost_ns{tenant}` (bounds
    ///   [`MODELED_COST_BOUNDS_NS`]) and the `serve_heap_hwm_bytes`
    ///   high-water gauge;
    /// * the queue-depth high-water gauge `serve_queue_depth_hwm`
    ///   (admitted requests this batch);
    /// * one `serve`/`preempt` flight event per preempted request
    ///   (reason `deadline`/`cancelled`/`shed`).
    ///
    /// The interpreter's own `exec_*` metrics flow through
    /// [`ExecConfig::metrics`] on the server's base config; those
    /// updates are commutative, so they too are scheduling-independent.
    pub fn serve_observed(
        &self,
        requests: Vec<Request>,
        tracer: &Tracer,
        metrics: &MetricsRegistry,
        flight: Option<&FlightRecorder>,
    ) -> Vec<Response> {
        let responses = self.serve_inner(requests, tracer);
        if metrics.is_enabled() || flight.is_some() {
            let mut ordered: Vec<&Response> = responses.iter().collect();
            ordered.sort_by_key(|r| r.id);
            let admitted = ordered.iter().filter(|r| r.code() != "shed").count();
            metrics.gauge_max("serve_queue_depth_hwm", &[], admitted as u64);
            for r in ordered {
                let tenant = r.tenant.to_string();
                let tl: &[(&str, &str)] = &[("tenant", &tenant)];
                metrics.add("serve_requests_total", tl, 1);
                metrics.add(
                    "serve_responses_total",
                    &[("code", r.code()), ("tenant", &tenant)],
                    1,
                );
                metrics.add("serve_quanta_total", tl, r.quanta);
                match &r.outcome {
                    Ok(o) => {
                        metrics.add("serve_fuel_ticks_total", tl, o.fuel_ticks);
                        let model = ade_interp::cost::CostModel::intel_x64();
                        let modeled = model.time_ns(&o.stats.totals());
                        metrics.observe(
                            "serve_modeled_cost_ns",
                            tl,
                            &MODELED_COST_BOUNDS_NS,
                            if modeled.is_finite() && modeled >= 0.0 {
                                modeled as u64
                            } else {
                                0
                            },
                        );
                        metrics.gauge_max(
                            "serve_heap_hwm_bytes",
                            &[],
                            o.stats.peak_bytes as u64,
                        );
                    }
                    Err(ExecError::Preempted { reason }) => {
                        if let Some(fr) = flight {
                            fr.record(
                                "serve",
                                "preempt",
                                &[
                                    ("id", FieldValue::from(r.id)),
                                    ("tenant", FieldValue::from(r.tenant)),
                                    ("reason", FieldValue::from(reason.code())),
                                    ("quanta", FieldValue::from(r.quanta)),
                                ],
                            );
                        }
                    }
                    Err(_) => {}
                }
            }
        }
        responses
    }

    fn serve_inner(&self, requests: Vec<Request>, tracer: &Tracer) -> Vec<Response> {
        let total = requests.len();
        let mut slots: Vec<Option<Response>> = Vec::with_capacity(total);
        slots.resize_with(total, || None);
        let results: Vec<Mutex<Option<Response>>> = slots
            .into_iter()
            .map(Mutex::new)
            .collect();

        // Admission, in arrival order: the first `capacity` requests
        // run; the rest are shed without touching the interpreter.
        let mut admitted: Vec<(usize, Request)> = Vec::new();
        for (idx, req) in requests.into_iter().enumerate() {
            if admitted.len() < self.config.capacity {
                tracer
                    .event("serve", "admit")
                    .field("id", req.id)
                    .field("worker", (admitted.len() % self.config.workers) as u64)
                    .emit();
                admitted.push((idx, req));
            } else {
                tracer
                    .event("serve", "shed")
                    .field("id", req.id)
                    .emit();
                *results[idx].lock().expect("serve slot poisoned") = Some(Response {
                    id: req.id,
                    tenant: req.tenant,
                    quanta: 0,
                    outcome: Err(ExecError::Preempted {
                        reason: StopReason::Shed,
                    }),
                });
            }
        }

        let workers = self.config.workers;
        std::thread::scope(|scope| {
            for w in 0..workers {
                let batch: Vec<(usize, Request)> = admitted
                    .iter()
                    .enumerate()
                    .filter(|(pos, _)| pos % workers == w)
                    .map(|(_, (idx, req))| (*idx, req.clone()))
                    .collect();
                if batch.is_empty() {
                    continue;
                }
                let results = &results;
                let tracer = tracer.clone();
                scope.spawn(move || self.drive(batch, results, &tracer));
            }
        });

        results
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .expect("serve slot poisoned")
                    .expect("every request resolves to a response")
            })
            .collect()
    }

    /// One worker: spawns sessions for its requests and steps them
    /// round-robin until all have finished.
    fn drive(&self, batch: Vec<(usize, Request)>, results: &[Mutex<Option<Response>>], tracer: &Tracer) {
        let mut live: Vec<(usize, Slot)> = Vec::with_capacity(batch.len());
        for (idx, req) in batch {
            let mut exec = self.base.clone();
            exec.fuel = req.fuel.or(exec.fuel);
            exec.max_heap_cells = req.max_heap_cells.or(exec.max_heap_cells);
            match ExecSession::spawn(Arc::clone(&self.decoded), &req.entry, exec) {
                Ok(session) => live.push((
                    idx,
                    Slot {
                        id: req.id,
                        tenant: req.tenant,
                        session,
                        quanta: 0,
                        deadline: req
                            .deadline_ms
                            .map(|ms| Instant::now() + Duration::from_millis(ms)),
                        cancel: req.cancel.clone(),
                        cancel_after_quanta: req.cancel_after_quanta,
                    },
                )),
                Err(e) => {
                    self.resolve(
                        results,
                        idx,
                        Response { id: req.id, tenant: req.tenant, quanta: 0, outcome: Err(e) },
                        tracer,
                    );
                }
            }
        }

        while !live.is_empty() {
            let mut i = 0;
            while i < live.len() {
                let (idx, slot) = &mut live[i];
                // Preemption checks happen before each grant, so a fired
                // token or expired deadline is honored without running
                // another instruction.
                if slot.cancel.as_ref().is_some_and(CancelFlag::is_cancelled) {
                    slot.session.cancel(StopReason::Cancelled);
                    tracer.event("serve", "cancel").field("id", slot.id).field("reason", "cancelled").emit();
                } else if slot.cancel_after_quanta.is_some_and(|n| slot.quanta >= n) {
                    slot.session.cancel(StopReason::Cancelled);
                    slot.cancel_after_quanta = None; // emit the event once
                    tracer.event("serve", "cancel").field("id", slot.id).field("reason", "cancelled").emit();
                } else if slot.deadline.is_some_and(|d| Instant::now() >= d) {
                    slot.session.cancel(StopReason::Deadline);
                    slot.deadline = None; // emit the event once
                    tracer.event("serve", "cancel").field("id", slot.id).field("reason", "deadline").emit();
                }
                match slot.session.step(Some(self.config.quantum)) {
                    Ok(Step::Running) => {
                        slot.quanta += 1;
                        i += 1;
                    }
                    Ok(Step::Done(outcome)) => {
                        slot.quanta += 1;
                        let (idx, slot) = (*idx, live.swap_remove(i).1);
                        self.resolve(
                            results,
                            idx,
                            Response {
                                id: slot.id,
                                tenant: slot.tenant,
                                quanta: slot.quanta,
                                outcome: Ok(outcome),
                            },
                            tracer,
                        );
                    }
                    Err(e) => {
                        let (idx, slot) = (*idx, live.swap_remove(i).1);
                        self.resolve(
                            results,
                            idx,
                            Response {
                                id: slot.id,
                                tenant: slot.tenant,
                                quanta: slot.quanta,
                                outcome: Err(e),
                            },
                            tracer,
                        );
                    }
                }
            }
        }
    }

    fn resolve(&self, results: &[Mutex<Option<Response>>], idx: usize, response: Response, tracer: &Tracer) {
        tracer
            .event("serve", "done")
            .field("id", response.id)
            .field("code", response.code().to_string())
            .field("quanta", response.quanta)
            .emit();
        *results[idx].lock().expect("serve slot poisoned") = Some(response);
    }
}

/// Renders responses as a deterministic transcript: one line per
/// request, sorted by id, carrying only scheduling-independent fields
/// (id, status code, quanta, printed output). For workloads without
/// racy wall deadlines this is byte-identical across runs, worker
/// counts, and quantum interleavings — the serving smoke diffs it.
pub fn transcript(responses: &[Response]) -> String {
    let mut rows: Vec<&Response> = responses.iter().collect();
    rows.sort_by_key(|r| r.id);
    let mut out = String::new();
    for r in rows {
        let output = match &r.outcome {
            Ok(o) => escape(&o.output),
            Err(_) => String::new(),
        };
        out.push_str(&format!(
            "#{} {} quanta={} output={}\n",
            r.id,
            r.code(),
            r.quanta,
            output
        ));
    }
    out
}

/// [`transcript`] followed by a metrics section: the registry's
/// Prometheus-style exposition under a `--- metrics ---` separator.
/// Wall-class metrics are excluded, so for deterministic workloads the
/// whole rendering — transcript and metrics — is byte-identical across
/// runs and worker counts (the serving smoke diffs it). A disabled
/// registry renders the plain transcript with no separator.
pub fn transcript_with_metrics(responses: &[Response], metrics: &MetricsRegistry) -> String {
    let mut out = transcript(responses);
    if metrics.is_enabled() {
        out.push_str("--- metrics ---\n");
        out.push_str(&metrics.snapshot().to_prometheus(false));
    }
    out
}

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('\n', "\\n")
}

#[cfg(test)]
mod tests {
    use super::*;
    use ade_ir::parse::parse_module;

    fn decoded(src: &str) -> Arc<DecodedModule> {
        let module = parse_module(src).expect("parses");
        Arc::new(DecodedModule::decode_with(&module, &Default::default()))
    }

    const WORK: &str = r#"
fn @main() -> void {
  %s = new Set<u64>
  %zero = const 0u64
  %n = const 300u64
  %sf = forrange %zero, %n carry(%s) as (%i: u64, %ss: Set<u64>) {
    %s1 = insert %ss, %i
    yield %s1
  }
  %count = size %sf
  print %count
  ret
}

fn @small() -> void {
  %a = const 2u64
  %b = const 3u64
  %c = add %a, %b
  print %c
  ret
}
"#;

    fn server(config: ServeConfig) -> Server {
        Server::new(decoded(WORK), ExecConfig::default(), config)
    }

    #[test]
    fn mixed_batch_resolves_every_request_in_order() {
        let s = server(ServeConfig { quantum: 64, workers: 3, capacity: 64 });
        let responses = s.serve(vec![
            Request::new(0, "main"),
            Request::new(1, "small"),
            Request::new(2, "main").with_fuel(10),
            Request::new(3, "nope"),
        ]);
        assert_eq!(responses.len(), 4);
        assert_eq!(
            responses.iter().map(Response::code).collect::<Vec<_>>(),
            ["ok", "ok", "fuel", "no-entry"]
        );
        assert_eq!(responses[0].id, 0);
        assert_eq!(responses[1].outcome.as_ref().expect("ok").output, "5\n");
        assert!(responses[0].quanta > 1, "300 iterations at quantum 64 must slice");
    }

    #[test]
    fn overload_sheds_by_arrival_order() {
        let s = server(ServeConfig { quantum: 1024, workers: 2, capacity: 2 });
        let responses = s.serve((0..5).map(|i| Request::new(i, "small")).collect());
        let codes: Vec<_> = responses.iter().map(Response::code).collect();
        assert_eq!(codes, ["ok", "ok", "shed", "shed", "shed"]);
        assert!(responses[2..].iter().all(|r| r.quanta == 0));
    }

    #[test]
    fn deterministic_cancellation_hooks() {
        let s = server(ServeConfig { quantum: 16, workers: 1, capacity: 8 });
        let flag = CancelFlag::new();
        flag.cancel(); // fired before serving: observed at the first boundary
        let responses = s.serve(vec![
            Request::new(0, "main").with_cancel_after_quanta(0),
            Request::new(1, "main").with_deadline_ms(0),
            Request::new(2, "main").with_cancel(flag),
            Request::new(3, "main").with_deadline_ms(60_000),
        ]);
        assert_eq!(
            responses.iter().map(Response::code).collect::<Vec<_>>(),
            ["cancelled", "deadline", "cancelled", "ok"]
        );
    }

    #[test]
    fn heap_budget_is_per_request() {
        let s = server(ServeConfig::default());
        let responses = s.serve(vec![
            Request::new(0, "main").with_max_heap_cells(0),
            Request::new(1, "main"),
        ]);
        assert_eq!(responses[0].code(), "heap-cells");
        assert_eq!(responses[1].code(), "ok");
    }

    #[test]
    fn transcript_is_identical_across_workers_and_quanta() {
        let requests = || {
            vec![
                Request::new(4, "main"),
                Request::new(2, "small"),
                Request::new(7, "main").with_fuel(25),
                Request::new(1, "main").with_cancel_after_quanta(0),
            ]
        };
        // Quanta counts depend on the quantum size, so pin it and vary
        // only scheduling (worker count + run repetition).
        let reference = transcript(
            &server(ServeConfig { quantum: 32, workers: 1, capacity: 8 }).serve(requests()),
        );
        assert!(reference.contains("#2 ok"));
        assert!(reference.contains("#1 cancelled"));
        for workers in [2, 4] {
            let t = transcript(
                &server(ServeConfig { quantum: 32, workers, capacity: 8 }).serve(requests()),
            );
            assert_eq!(t, reference, "workers={workers}");
        }
    }

    #[test]
    fn observed_serving_publishes_deterministic_metrics() {
        let requests = || {
            vec![
                Request::new(0, "main").with_tenant(1),
                Request::new(1, "small").with_tenant(2),
                Request::new(2, "main").with_tenant(1).with_fuel(25),
                Request::new(3, "main").with_tenant(2).with_cancel_after_quanta(0),
            ]
        };
        let run = |workers: usize| {
            let mut base = ExecConfig::default();
            base.metrics = MetricsRegistry::enabled();
            let metrics = base.metrics.clone();
            let flight = FlightRecorder::new(32);
            let s = Server::new(
                decoded(WORK),
                base,
                ServeConfig { quantum: 32, workers, capacity: 3 },
            );
            let responses =
                s.serve_observed(requests(), &Tracer::disabled(), &metrics, Some(&flight));
            (
                transcript(&responses),
                metrics.snapshot().to_json(false),
                flight.dump_json(&[]),
            )
        };
        let (t1, m1, f1) = run(1);
        let (t4, m4, f4) = run(4);
        assert_eq!(t1, t4, "transcript unchanged with metrics attached");
        assert_eq!(m1, m4, "metric snapshot is worker-count independent");
        assert_eq!(f1, f4, "flight dump is worker-count independent");
        // Per-tenant accounting: capacity 3 sheds the fourth arrival
        // (id 3, tenant 2); id 2 trips its fuel budget (a limit, not a
        // preemption).
        // The snapshot is JSON, so the ids' label quotes arrive escaped.
        assert!(m1.contains(r#"serve_requests_total{tenant=\"1\"}"#), "{m1}");
        assert!(
            m1.contains(r#"serve_responses_total{code=\"shed\",tenant=\"2\"}"#),
            "{m1}"
        );
        assert!(
            m1.contains(r#"serve_responses_total{code=\"fuel\",tenant=\"1\"}"#),
            "{m1}"
        );
        assert!(m1.contains("serve_queue_depth_hwm"), "{m1}");
        assert!(m1.contains("serve_modeled_cost_ns"), "{m1}");
        assert!(m1.contains(r#"exec_stops_total{reason=\"ok\"}"#), "{m1}");
        assert!(m1.contains("exec_quanta_total"), "{m1}");
        assert!(m1.contains("exec_fuel_ticks_total"), "{m1}");
        // The shed request leaves a serve-layer flight event.
        assert!(f1.contains("\"name\":\"preempt\""), "{f1}");
        assert!(f1.contains("\"reason\":\"shed\""), "{f1}");
    }

    #[test]
    fn transcript_metrics_section_appears_only_when_enabled() {
        let s = server(ServeConfig { quantum: 64, workers: 2, capacity: 8 });
        let responses = s.serve(vec![Request::new(0, "small")]);
        let plain = transcript_with_metrics(&responses, &MetricsRegistry::disabled());
        assert_eq!(plain, transcript(&responses));
        let metrics = MetricsRegistry::enabled();
        let responses = s.serve_observed(
            vec![Request::new(0, "small")],
            &Tracer::disabled(),
            &metrics,
            None,
        );
        let with = transcript_with_metrics(&responses, &metrics);
        assert!(with.starts_with(&transcript(&responses)), "{with}");
        assert!(with.contains("--- metrics ---\n"), "{with}");
        assert!(with.contains("serve_requests_total"), "{with}");
    }

    #[test]
    fn traced_serving_emits_admission_and_completion_events() {
        let s = server(ServeConfig { quantum: 64, workers: 2, capacity: 1 });
        let tracer = Tracer::enabled();
        let responses =
            s.serve_traced(vec![Request::new(0, "small"), Request::new(1, "small")], &tracer);
        assert_eq!(responses.iter().map(Response::code).collect::<Vec<_>>(), ["ok", "shed"]);
        let text = tracer.render_text(false);
        assert!(text.contains("admit"), "{text}");
        assert!(text.contains("shed"), "{text}");
        assert!(text.contains("done"), "{text}");
    }
}
