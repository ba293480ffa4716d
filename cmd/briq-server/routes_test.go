package main

import (
	"net/http"
	"net/http/httptest"
	"testing"

	"briq/internal/api"
)

// TestRouteSurface walks the shared route table: every endpoint must answer
// on its /v1 path, and its bare path must be 404. This is the briq-server
// half of the "gateway is a drop-in for the server" contract; briq-gateway
// has the mirror-image test.
func TestRouteSurface(t *testing.T) {
	srv := newTestServer()
	handler := srv.routes()

	for _, route := range api.Surface() {
		for _, tc := range []struct {
			path    string
			mounted bool
		}{
			{api.Versioned(route.Path), true},
			{route.Path, false},
		} {
			rec := httptest.NewRecorder()
			handler.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, tc.path, nil))
			if got := rec.Code != http.StatusNotFound; got != tc.mounted {
				t.Errorf("%s: status %d, want mounted = %v", tc.path, rec.Code, tc.mounted)
			}
		}
	}
}
