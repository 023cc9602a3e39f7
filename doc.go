// Package repro is a Go reproduction of "Routing without Flow Control —
// Hot-Potato Routing Simulation Analysis" (Bush, RPI 2002), the simulation
// study of the Busch–Herlihy–Wattenhofer SPAA 2001 hot-potato routing
// algorithm on ROSS.
//
// The repository layers two systems:
//
//   - internal/core — gotw, an optimistic (Time Warp) parallel
//     discrete-event simulation kernel with reverse computation, kernel
//     processes, token-ring GVT and fossil collection: the ROSS analogue.
//   - internal/hotpotato — the dynamic hot-potato routing model (four
//     priority states, home-run paths, probabilistic upgrades, continuous
//     injection) on an N×N torus or mesh.
//
// See README.md for the tour, DESIGN.md for the system inventory and
// experiment index, and EXPERIMENTS.md for paper-vs-measured results.
// The benchmarks in bench_test.go regenerate each figure's measurement at
// reduced scale; cmd/figures produces the full tables.
package repro
