// The benchmark is a module of its own so that the repository's tier-1
// build and tests (`go build ./... && go test ./...` at the root) never
// compile or run it; it reaches the packages under test through the
// replace line below.
module repro/benchmark

go 1.22

require repro v0.0.0

replace repro => ../
