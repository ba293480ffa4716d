package api

// Prefix is the current API version mount point. Every public endpoint is
// served under it and only there: a bare path answers 404.
const Prefix = "/v1"

// Route is one public endpoint of the serving surface: the instrument /
// metrics name and the canonical unversioned path.
type Route struct {
	Name string // counter and latency-histogram key, e.g. "align_batch"
	Path string // canonical path, e.g. "/align/batch"; versioned form is Prefix+Path
}

// Surface is the canonical public route table. briq-server and briq-gateway
// both build their muxes from exactly this list, which is what makes "the
// gateway is a drop-in for the server" a testable property instead of a
// convention: the golden test in this package locks the table, and each
// binary's route test walks it asserting every versioned path answers and
// every bare path is 404.
func Surface() []Route {
	return []Route{
		{Name: "align", Path: "/align"},
		{Name: "align_batch", Path: "/align/batch"},
		{Name: "ingest", Path: "/ingest"},
		{Name: "summarize", Path: "/summarize"},
		{Name: "search", Path: "/search"},
		{Name: "facts", Path: "/facts"},
		{Name: "metrics", Path: "/metrics"},
		{Name: "healthz", Path: "/healthz"},
	}
}

// RouteNames returns the Name column of Surface, the stable set of
// per-endpoint counter and histogram keys.
func RouteNames() []string {
	routes := Surface()
	names := make([]string, len(routes))
	for i, r := range routes {
		names[i] = r.Name
	}
	return names
}

// Versioned returns the /v1 form of a canonical path.
func Versioned(path string) string { return Prefix + path }
