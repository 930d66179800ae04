// Command perfbench is the repository benchmark: it measures whether
// the detector does its one job — a verdict for every HPC sample, each
// 10 ms — end to end and layer by layer, and checks every verdict it
// counts.
//
//	bash perfbench/run.sh --workload <name> --seed <n> --seconds 10 --trace <0|1>
//
// run.sh builds the program from source (everything it writes stays
// under .bench_build/) and runs it. The last line of standard output is
// one JSON object: {"correct", "attempted", "failed", "metrics"}, with
// every end-to-end metric under --trace 0 and every per-layer metric
// under --trace 1. The line before it records the host (nproc,
// GOMAXPROCS, Go version, CPU model), the seed, the spread inside the
// run, the sample counts, any failed check, and the run-to-run spread
// last measured by perfbench/spread.py (perfbench/spread.json).
// BENCHMARK.json is generated from spec.go:
//
//	(cd perfbench && go run . --write-spec ../BENCHMARK.json)
//
// # What is measured as shipped
//
// Every workload runs the engine and ingest configuration hmd-serve
// ships by default: a 32-slot timer wheel with the default harvest cap,
// the Block policy, 8 pending batches per shard, a 64-sample ingest
// window, the compiled tier, a 5-sample chain window and training seed
// 1. The benchmark never sets WheelSlots, MaxHarvestTicks or Window, so
// a wheel that misses its 10 ms rotation shows in the numbers instead
// of being configured away. It drives the system only through public
// calls — collect.Collect, core.Builder.BuildChain,
// core.NewChainReplicator, fleet.New/Add/Run/Stats/SaveState,
// ingest.NewServer/Serve/StatsSnapshot, ingest.Dial/Send/Next/Bye — and
// times them from its own files.
//
// # Inputs
//
// Before timing starts the generator records 256 intervals of the
// simulated machine running each of the six apps of hmd-serve's unseen
// monitoring schedule (benign and malware alternating), on run indices
// the workload seed picks; fleet-unpaced-1k also records each app with
// seeded stuck/zero counter faults. A stream replays one recording
// cyclically from a seeded offset. The seed fixes every input; the
// program under test only ever sees the generated samples.
//
// # Workloads
//
//   - wire-10ms: open loop over loopback TCP. nproc client connections,
//     one stream each, send one SAMPLE frame every 10 ms for the window
//     and then BYE, against the ingest-mode chain (REPTree, general,
//     4→2 HPCs). The load is tiny, so scoring is negligible and pacing
//     and the ingest plane decide the result: the whole real path,
//     client write → frame decode → ingest ring → wheel → shard →
//     writer → client read.
//   - fleet-10ms-8k: 8192 in-process streams the engine pulls every
//     10 ms through the benchmark's own BufferedSource, checkpointing
//     every 16 rotations (hmd-serve's -checkpoint-every) to a scratch
//     directory. The same wheel at density with no TCP; crash-safe state
//     writes run beside scoring. Pacing, harvest and checkpoints decide
//     the result; ingest does nothing here.
//   - fleet-unpaced-1k: closed loop (Interval 0). Each pass runs 1024
//     streams × 2048 intervals on a fresh engine with the boosted
//     REPTree 4→2 chain (-variant boosted, the paper's headline
//     ensemble), and passes repeat until the window is spent. One stream
//     in eight replays a faulty trace, so the 2-HPC stage and the
//     stepdown path carry part of the load. This is the scoring ceiling
//     — shard gather/score/demux, the chain, the compiled forest kernels
//     — with no pacing and no wire; a pacing fix should leave it
//     unchanged. Its working set sits in cache, while the 8192-stream
//     working set does not.
//
// BENCHMARK.json lists only wire-10ms and fleet-10ms-8k: those are the
// workloads a change is held to. fleet-unpaced-1k runs, checks and
// reports like them (bash perfbench/run.sh --workload fleet-unpaced-1k
// ...), but it is CPU-bound, and on the 2-vCPU host this benchmark was
// built on the CPU's own speed swings by about ±20% over seconds (a
// fixed single-threaded loop varies that much). Ten seeded runs put the
// spread of its verdict rate at 0.06–0.13 of the median and of its
// cycle-time p99 at 0.09–0.23, and medians moved by 20% (rate) and 50%
// (p99) between sets an hour apart — more than any bound the gate
// allows. Compare it run against run, on a quiet host, alternating
// commits.
//
// # End-to-end metrics
//
// The latency limit is 20 ms, two sampling intervals.
//
//   - setup_s: hmd-serve's cold start without a model checkpoint, from
//     corpus collection and training through the engine (and, for the
//     wire, the ingest server) being up and the first stream admitted.
//     Each run starts cold nine times, each after a forced collection,
//     and reports the median: the cold start is CPU-bound corpus
//     collection, and the host's CPU speed drifts over tens of seconds,
//     so one start is not a steady figure.
//   - verdicts_per_s: verdicts delivered per second of the window. For
//     the paced workloads these are verdicts of samples due inside the
//     window that arrive by its end plus the 20 ms limit; for the closed
//     loop, the median over passes of verdicts per second of Run. Each
//     closed-loop pass starts after a forced collection, so garbage its
//     own set-up made is not collected inside the timed pass.
//   - delivered_frac: samples that got a correct verdict by that
//     deadline ÷ samples attempted (due, sent, or scheduled). A sample
//     counts as missing when it was shed, never harvested in the window,
//     answered by a hold-last verdict, left undelivered, or answered
//     wrongly. This is 1 − fail_frac; it is reported as the delivered
//     share so that the metric is never 0.
//   - latency_p50_ms, latency_p99_ms: from a sample's due time to its
//     verdict reaching the client (wire) or OnVerdict (fleet). A wire
//     sample is due at its scheduled send time; pull interval k is due
//     at t0 + k·10 ms, t0 being the call to Run. A closed loop has no
//     schedule: a stream's next interval is due when its previous
//     verdict lands (the first when the pass starts), so its latency is
//     the stream's cycle time; each pass's percentile is taken and the
//     median over passes reported. Fleet latencies are taken over every
//     31st stream (coprime with the 32 wheel slots); the sample count is
//     in the report line.
//   - heap_mb: the live heap a collection marked (runtime/metrics
//     /gc/heap/live:bytes). On fleet-10ms-8k it is the median over the
//     collections that ran inside the window (polled every 50 ms; their
//     number is in the report line): a single mark depends on what the
//     run held at that instant, a checkpoint being encoded say. On
//     fleet-unpaced-1k it is the last mark before the middle of the
//     second closed-loop pass. No collection is forced inside a window,
//     so the reading neither pauses the run nor lands in its GC-pause
//     figures. The wire's heap stays under the runtime's minimum
//     collection target, so none or one collection runs in its window;
//     there, two collections are forced after the deadline, outside
//     every measured figure, with the server still holding each
//     stream's backlog (two, because sync.Pools keep their contents
//     through the first).
//
// The top-level "failed" counts samples answered wrongly or not
// accounted for at all; a sample shed by the server's documented
// backpressure is a miss (it lowers delivered_frac), not a failure.
//
// Goodput — verdicts within the 20 ms limit per second — is reported as
// the per-layer metric e2e.goodput_vps. On wire-10ms with the shipped
// 32-slot wheel it is close to 0 (only a stream's first sample can be on
// time), and a metric that reads 0 cannot carry a bound relative to its
// median.
//
// # Why the run length is fixed
//
// A pull stream's interval k is harvested at the wheel's k-th rotation.
// When a rotation takes r > 10 ms, interval k is read about k·(r − 10)
// ms after it was due, so lateness on a backlogged pull stream grows
// linearly with how long the run lasts, and latency percentiles over a
// longer window are larger by construction. The wire's backlog is
// bounded instead by the 64-sample ingest window: beyond it the server
// sheds the oldest sample. Latency numbers are comparable only at one
// window length, so every run measures the same 10 s.
//
// # Correctness gate
//
// Every run checks every verdict it counts. Each fleet stream's
// verdicts must equal, interval for interval and bit for bit, a
// sequential FallbackChain.Observe replay of its input from a cold
// chain replica. Each wire stream's delivered verdicts must equal a
// replay of the samples that reached the chain: the delivered seqs in
// order, with a hold-last step for any engine interval no sample
// answered; every sent sample must be either answered or reported shed;
// and the server must end with accepted == attributed + shed,
// verdicts == attributed + held, no evictions, no protocol or wire
// errors, and no undelivered verdicts. A failed check sets "correct" to
// false and is named in the report line.
//
// # Per-layer metrics (--trace 1)
//
// A traced run first repeats the untraced pass, then runs the workload
// again with spans recorded at every call above: the cold-start steps,
// and per sample (on every 257th fleet stream, the first client's
// stream on the wire) the wait for the wheel, the source read, the
// shard's score-and-demux and, on the wire, the send and the server
// path. Spans and boundary counters stay in memory and are written at
// the end, with per-layer self time (a span's duration minus what its
// children cover) and the tracing overhead against the untraced pass,
// to .bench_build/traces/<workload>-seed<N>.json. A metric of a layer
// the workload does not exercise reads 0. Each metric, and the
// end-to-end number it should move:
//
//   - fleet.rotation_ms (window ÷ rotations) and
//     fleet.harvest_slip_ms_p50/p99 (when the benchmark source's
//     ReadInto is called, minus the interval's due time): goodput,
//     latency and delivered_frac on wire-10ms and fleet-10ms-8k; nothing
//     on fleet-unpaced-1k. On the wire the engine reads from the
//     server's source, which the benchmark cannot time, so the slip of
//     engine interval j is taken at the client instead: when the verdict
//     of interval j arrives, minus t0 + j·10 ms. That includes the
//     score-and-deliver path, microseconds against a slip of
//     milliseconds, so it bounds the harvest slip from above.
//   - fleet.read_to_verdict_us_p50/p99 (ReadInto to OnVerdict on the
//     sampled streams; on the wire, for the same reason, the p50 and p99
//     of the engine's harvest-to-verdict histogram),
//     fleet.harvest_to_verdict_us_p99 (from the engine's LagHistogram,
//     delta over the window),
//     fleet.verdicts_per_batch, fleet.queue_depth_max,
//     fleet.lag_rotations_max, fleet.shed_intervals and
//     fleet.lost_verdicts: verdicts_per_s on fleet-unpaced-1k and
//     latency_p99_ms on fleet-10ms-8k.
//   - ingest.shed_frac: delivered_frac and verdicts_per_s on wire-10ms.
//     ingest.send_us_p50/p99 (timed Client.Send),
//     ingest.server_writes_per_verdict, ingest.verdict_batch_frac
//     (VERDICT_BATCH frames per server socket write) and
//     ingest.evictions: latency_p50_ms on wire-10ms.
//   - core.observe_ns (the single-threaded reference replay, which is
//     also the single-threaded baseline) and
//     compiled.score_ns_per_vector (Batcher.ScoreBatch on the primary
//     stage at the measured batch size): verdicts_per_s on
//     fleet-unpaced-1k.
//   - core.save_state_ms (one timed Engine.SaveState after the run),
//     core.checkpoint_bytes, fleet.checkpoints and
//     fleet.checkpoint_errors: latency_p99_ms on fleet-10ms-8k.
//   - collect.corpus_s, core.train_s and core.replicate_ms: setup_s on
//     every workload.
//   - runtime.gc_pause_ms_p99 and runtime.sched_latency_ms_p99 (from
//     runtime/metrics, delta over the window; on fleet-unpaced-1k, summed
//     over the passes, after each pass's forced collection):
//     latency_p99_ms on the paced workloads.
//   - gen.late_ms_p99: how late the wire's open-loop generator sent.
//     When it rises, the latency numbers are suspect.
//   - e2e.goodput_vps: verdicts within the 20 ms limit per second (on
//     the closed loop, verdicts_per_s times the sampled share of cycles
//     within the limit); trace.overhead_frac: 1 − traced ÷ untraced
//     verdicts_per_s.
//
// The cluster control plane and the legacy supervise.Pipeline are not
// on the steady-state sample path and are not measured.
package main
