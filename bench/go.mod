// The benchmark is its own module so the repo's tier-1 build and test
// (`go build ./... && go test ./...` at the root) never include it. The
// module path sits under the root module's, which is what lets the
// traced replay import insitu/internal/... through the replace below.
module insitu/bench

go 1.24

require insitu v0.0.0

replace insitu => ../
