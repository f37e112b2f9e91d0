// The benchmark is its own module so that it builds from its own
// directory and never enters the root module's `go build ./...`,
// `go test ./...` or coverage floor. Its path sits under the root
// module's path, which is what lets it import disttrain/internal/...
module disttrain/benchmark

go 1.22

require disttrain v0.0.0

replace disttrain => ../
