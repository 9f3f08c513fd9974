// Package analysis is the repo's static-analysis framework: a
// dependency-free reimplementation of the golang.org/x/tools/go/analysis
// surface the insitulint analyzers are written against. The environment
// this repo builds in has no module proxy access, so the framework is
// grown from the standard library (go/ast, go/types, go/parser) instead
// of vendoring x/tools; the Analyzer/Pass/Diagnostic/Facts shapes are
// kept close enough that the analyzers would port to the real framework
// by changing one import line.
//
// # Why these invariants are worth a compiler
//
// The subsystems built in PRs 4-6 (see CHANGES.md) each rest on a
// contract that the Go compiler does not check and that one bad edit
// silently breaks:
//
//   - Zero-allocation steady state (PR 4). The renderers own frame
//     arenas — reused buffers, prebuilt kernel closures, images valid
//     until the next Render — so steady-state frames perform no heap
//     allocation. A stray fmt.Sprintf or closure in a kernel reverts
//     months of arena work and only shows up as a benchmark regression.
//     The noalloc analyzer makes the contract syntactic: functions
//     marked `//insitu:noalloc` (and every same-package function they
//     statically call) must not contain allocating constructs, and
//     cross-package callees must be annotated or safe-listed.
//
//   - Collective discipline (PR 6). The cluster runs collective
//     reductions (bounds, field ranges, error barriers) every frame;
//     every rank must execute every collective or the fleet deadlocks.
//     The collective analyzer flags collectives under rank-local
//     conditions and rank-local or error-path early exits that skip a
//     later collective, steering code toward the two-phase error
//     barrier (AllReduce an error flag, then take the same exit
//     together).
//
//   - Lease and arena lifetimes (PR 5/PR 6). RunnerCache leases pin
//     prepared runners and their device pools; a path that exits
//     without Release starves the cache. Arena-owned values (frame
//     images, compactor index lists, compositor output) are valid only
//     until the next frame; storing one in a field, global, or channel
//     is a use-after-overwrite waiting for load. The leaselife analyzer
//     checks release-on-every-path and arena escape.
//
//   - Cancelable transport (PR 6). comm gained ctx-aware
//     SendCtx/RecvCtx/RecvAnyCtx so cluster shutdown can interrupt
//     blocked ranks. The ctxcomm analyzer flags bare Send/Recv inside
//     ctx-param functions when the Ctx variant exists, and
//     context.Background()/TODO() passed down while a caller's ctx is
//     in scope.
//
// # Annotation grammar
//
//	//insitu:noalloc            (func doc) zero-allocation obligation
//	//insitu:arena              (func doc) results are frame-owned
//	//insitu:<mark>-package     (package doc) mark every non-test function
//	//insitu:<analyzer>-ok why  (line) suppress one diagnostic, with the
//	                            justification kept next to the code
//
// Suppressions are applied centrally in Pass.Reportf: a comment on line
// L covers diagnostics on L and L+1, so the comment trails the flagged
// line or sits on its own line above.
//
// # Running
//
// tools/insitulint is a `go vet` vettool (`make lint`), speaking vet's
// unitchecker .cfg/.vetx protocol so annotations flow across packages
// as serialized Facts; vet hands it the _test.go units too.
// Fixture-driven tests live under each analyzer's testdata/, run by
// internal/analysis/analysistest.
package analysis
