// The repo benchmark is a module of its own so that it builds from its
// own directory and stays out of the root module's `go test ./...`.
// Its import path sits under automdt/, which is what lets it import
// automdt/internal/...
module automdt/benchmark

go 1.24

require automdt v0.0.0

replace automdt => ../
