// Package pfg is a parallel filtered-graph hierarchical clustering library,
// a from-scratch Go implementation of "Parallel Filtered Graphs for
// Hierarchical Clustering" (Yu & Shun, ICDE 2023).
//
// Given all pairwise similarities among a set of objects (for time series,
// typically Pearson correlations), the library builds a Triangulated
// Maximally Filtered Graph (TMFG) — a maximal planar graph keeping the most
// important 3n−6 of the Θ(n²) similarities — and then extracts a
// hierarchical clustering dendrogram with the Directed Bubble Hierarchy
// Tree (DBHT) technique. Neither step needs parameter tuning; the only knob
// is the TMFG construction prefix, the most vertices inserted per round
// (prefix 1 reproduces the sequential TMFG exactly). Larger prefixes give
// up a little filtering quality for fewer rounds; since TMFG face gains are
// recomputed lazily, a small prefix builds no slower than a large one.
//
// The library also ships the baselines the paper evaluates against — PMFG
// (the slower planar filter TMFG approximates), complete/average-linkage
// HAC, k-means, and spectral k-means — plus the quality metrics (ARI, AMI)
// and synthetic workload generators used by the benchmark harness.
//
// # Quick start
//
//	series := ... // [][]float64, one row per object
//	res, err := pfg.Cluster(series, pfg.Options{Prefix: 10})
//	if err != nil { ... }
//	labels, err := res.Cut(8) // 8 clusters
//
// For cancellation and per-call concurrency budgets, use ClusterContext /
// ClusterMatrixContext with Options.Workers.
//
// # Streaming
//
// For continuous serving, Streamer keeps a rolling window and re-clusters
// it on every new observation without the O(n²·T) batch correlation
// recompute: Push maintains the window's Pearson moments incrementally in
// O(n²) (rank-1 update + downdate of the cross-product band), and
// Snapshot finishes them into matrices and clusters with the configured
// method. Snapshots are bit-identical to batch Cluster over the same
// window while the window fills and right after every drift rebuild (the
// StreamOptions.RebuildEvery knob); Push/Rebuild are single-writer,
// Snapshot may run concurrently with both, and a closed streamer returns
// the ErrClosed sentinel from every method (never panics or blocks). The
// window state carries a monotonic Generation stamp — bumped by every
// admitted Push — and SnapshotGen returns the stamp its result was
// clustered from, which is what serving-layer caches key on. The layer
// stack becomes
//
//	http        cmd/pfg-serve + internal/serve (multi-session JSON API,
//	            coalesced generation-keyed snapshot cache, admission
//	            control, durable sessions with boot recovery,
//	            /metricsz exposition and /driftz structure drift)
//	obs         internal/obs (atomic counters/gauges/log2 histograms,
//	            Prometheus text exposition, nil-safe stage timers)
//	durability  internal/ckpt (versioned CRC32C-framed checkpoints,
//	            segment-rotating push WAL, torn-tail-tolerant replay)
//	serving     pfg.Streamer + internal/stream (stateful rolling
//	            windows, cross-tick incremental clustering)
//	api         pfg.Cluster / ClusterContext (stateless batch calls)
//	algorithms  internal/{matrix, tmfg, pmfg, dbht, hac, graph, ...}
//	kernels     internal/kernel (SYRK, rank-1 roll, finish, relaxation
//	            sweep, heap, scans)
//	memory      internal/ws + internal/bitset (flat pooled scratch)
//	execution   internal/exec (bounded context-aware worker pools)
//
// See README.md ("Streaming" and "Serving over HTTP") for the exactness
// guarantee and the concurrency contract; perfbench (bash perfbench/run.sh)
// measures the serving path end to end.
//
// # Incremental cross-tick clustering
//
// StreamOptions.Incremental (see IncrementalOptions) makes snapshots reuse
// the most recent exact clustering across ticks instead of re-clustering
// the window from scratch every time. The layer keeps the reference
// result and its correlation matrix, and serves the result while a chain
// of gates admits it: engine-exact boundaries (fill, rebuilds) and moments
// older than the reference always force an exact re-cluster, as do
// entrywise correlation drift beyond DriftThreshold and reference age
// beyond MaxStale. A re-cluster takes the same finish-and-cluster path as
// a non-incremental snapshot. Served-stale results
// carry Result.TicksSinceExact and Result.Drift (stale_ticks/drift on the
// wire); exact results report 0/0, so a snapshot is always bit-identical
// (Workers:1) to the exact clustering of the window TicksSinceExact ticks
// ago. Streamer.IncrementalStats counts gate outcomes.
//
// # Durability
//
// Streamer.Checkpoint serializes the full window state — configuration,
// moment sums, ring, cross-product band — into a versioned, CRC32C-framed
// binary form (internal/ckpt, format v1), and RestoreStreamer reconstructs
// a streamer from it that resumes at the checkpointed generation with
// bit-identical (Workers:1) snapshots: the restored streamer's next Push
// and Snapshot behave exactly as the original's would have. Encoding is
// one pass with O(1) allocations, whatever the state size; decoding
// rejects truncated or corrupted input with the typed sentinels
// ckpt.ErrBadMagic / ErrVersion / ErrCorrupt / ErrFormat and never panics
// or over-allocates on crafted headers. The incremental layer's warm
// reference is a cache, not state — it is not persisted, so the first
// snapshot after a restore is an exact re-cluster (TicksSinceExact 0) and
// the gate trajectory matches from then on.
//
// pfg-serve builds session durability on this: with -state-dir set, each
// session checkpoints every -checkpoint-every admitted pushes and
// write-ahead-logs the pushes in between (fsync policy per -fsync);
// checkpoint writes are atomic, a checkpoint rotates the WAL, and boot
// recovery replays the newest usable checkpoint plus the WAL up to any
// torn tail. README.md ("Durability") documents the file layout and
// recovery semantics; internal/ckpt/crash_test.go is the crash-injection
// harness that pins byte-identical recovery at every frame boundary.
//
// # Observability
//
// The serving stack is instrumented by internal/obs — a dependency-free
// registry of atomic counters, gauges, and log2-bucketed histograms with
// hand-rolled Prometheus text exposition (pfg-serve's /metricsz). On the
// engine side, StreamerMetrics carries nil-safe per-stage timers
// (push admit/roll/rebuild, snapshot finish/cluster, the incremental
// gates) installed with Streamer.SetMetrics; a nil or absent metrics set
// means the hot paths never read a clock. pfg-serve additionally tracks
// structure drift between consecutive clustering generations — adjusted
// Rand index between flat cuts plus filtered-graph edge churn — served on
// /driftz and as the drift field of SSE frames. README.md
// ("Observability") documents the metric families, the overhead contract
// (0 extra allocations, ≤5% ns/op on the hot paths) and how it is
// measured.
//
// # Wire form
//
// Result.JSON builds ResultJSON, the stable JSON encoding of a clustering
// (Newick tree, canonical filtered-graph edges, flat labels at requested
// cuts) shared by the pfg-serve snapshot responses and pfg-cluster's
// -json output.
//
// # Memory behavior
//
// Every call runs on flat memory — CSR graphs and groupings, dense bitsets
// — with scratch drawn from a pooled per-call workspace (internal/ws).
// Repeated calls on same-shaped inputs therefore reach a steady state that
// allocates a fixed handful of objects per call, which keeps GC pressure
// flat under heavy concurrent serving; see README.md ("Flat memory and
// workspaces").
//
// # Kernel layer
//
// The arithmetic under the hot loops lives in internal/kernel: a
// register-tiled SYRK for the Pearson product Z·Zᵀ (2×4 micro-tiles sized
// to amd64's register file), a finish pass that applies the correlation
// fixups and the mirror in one blocked traversal, the dissimilarity
// transform that DBHT applies to its graph's edges and HAC to its working
// copy, an eight-lane relaxation sweep for all-pairs shortest paths,
// a 4-ary implicit heap for the Dijkstra oracle, and unrolled
// min/argmin and max-gain scan kernels used by the HAC NN-chain and TMFG
// gain recomputation. Kernels are sequential over explicit ranges — the
// algorithm layers drive them in parallel — and bit-deterministic: worker
// count and chunk partitioning can change the work order but never an
// output bit. The all-pairs shortest paths DBHT reads (internal/graph) run
// eight sources at once, one per SIMD lane, sweeping the graph forward and
// backward from 0/+Inf labels to the fixed point; every row equals a
// per-source Dijkstra's bit for bit.
//
// The hottest kernels — the SYRK tile, the rank-1 roll, the Pearson finish,
// the incremental drift gate's CorrDriftRows scan (whose oracle is its
// scalar row core), the RelaxSweep behind all-pairs shortest paths and the
// MinIdx/DissimRow scans — carry two backends
// selected at init: hand-written AVX2 assembly on capable amd64 hosts, and
// the always-compiled pure-Go scalar cores everywhere else (forced by
// -tags purego).
// The backends are bit-identical in float64 — the vector code avoids FMA,
// vectorizes across matrix columns rather than the time dimension, and
// mirrors scalar operand order — and KernelISA reports which one this
// process runs. SYRK additionally accumulates in KC-sized time panels
// folded in ascending order, which makes the band invariant to T-panel
// partitioning and lets matrix.SyrkUpperWS parallelize one large-T
// correlation build across panels with bit-identical output at any worker
// count. README.md ("Kernel layer") documents the tiling scheme, the
// determinism guarantee, and how to pick tile sizes.
//
// See the examples/ directory for runnable programs and README.md for the
// architecture overview and the context-aware API.
package pfg
