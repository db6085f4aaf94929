// The benchmark is a module of its own so that the repository's
// `go build ./...` and `go test ./...` never compile or run it; the
// import path keeps the eunomia/ prefix so internal/ packages resolve.
module eunomia/bench

go 1.23

require eunomia v0.0.0

replace eunomia => ../
