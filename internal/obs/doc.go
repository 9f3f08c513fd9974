// Package obs is the serving stack's observability substrate: the
// allocation-free measurement primitives every hot path records into,
// and the snapshot/export forms the HTTP layers serve.
//
// Three primitives, matched to the three questions a model-gated render
// service must answer about itself:
//
//   - Histogram: where does latency actually land? Lock-free fixed-bucket
//     latency histograms — log-spaced nanosecond buckets (four sub-buckets
//     per power of two), atomic counters, zero allocation per Observe —
//     with mergeable Snapshots and interpolated p50/p95/p99. The two
//     global totals the service used to expose (sum, count) hide exactly
//     the tail a deadline scheduler is judged on.
//
//   - FrameTrace / Tracer: where did a slow frame spend its time? A span
//     per lifecycle stage (admit, queue-wait, runner-lease, render,
//     shard-dispatch, rank-render, composite, encode, cache-store),
//     recorded into a stack-allocated FrameTrace and committed by copy
//     into sharded, preallocated ring buffers — zero steady-state
//     allocation, enforced by insitulint's noalloc pass. Snapshots export
//     as a JSON timeline or a Chrome trace_event dump.
//
//   - DriftHistogram / Residuals: are the models still right? Every served
//     frame records its signed relative prediction error,
//     (predicted − measured) / measured, bucketed per backend × model
//     term, so model drift is a distribution per term — visible long
//     before it accumulates into deadline misses.
//
// Counters are declared once. A service keeps each monotonic count as
// one JSON-tagged uint64 or int64 field of a counter block
// (serve.Counters, cluster.Counters); hot paths bump the live block with
// atomic.AddUint64 — one locked add, no allocation — and LoadCounters
// copies it with atomic loads into the snapshot struct that embeds it.
// WriteProm renders any JSON-tagged snapshot struct (including the
// histogram forms above) as Prometheus text exposition, naming metrics
// by tag path and promoting untagged embedded structs into their parent
// as encoding/json does. So /v1/metrics (JSON) and /metrics (Prometheus)
// are two views of one snapshot, and a new counter is one field plus its
// bump sites.
package obs
