package api

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// TestRouteTableGolden locks the public route table — the one surface both
// briq-server and briq-gateway mount. A drift here is an API change: move
// the golden, the server and gateway route tests, and the client in the
// same commit. Regenerate deliberately with:
//
//	go test ./internal/api -run TestRouteTableGolden -update
func TestRouteTableGolden(t *testing.T) {
	var b strings.Builder
	for _, r := range Surface() {
		fmt.Fprintf(&b, "%s %s\n", r.Name, Versioned(r.Path))
	}
	got := b.String()

	golden := filepath.Join("testdata", "routes.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("route table drifted from golden.\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestStatusByCodeComplete pins the code table: every code constant maps to
// a status, and the map holds nothing else.
func TestStatusByCodeComplete(t *testing.T) {
	want := map[string]int{
		CodeBadRequest:       400,
		CodeMethodNotAllowed: 405,
		CodePayloadTooLarge:  413,
		CodeNoTables:         422,
		CodeNoMentions:       422,
		CodeUnprocessable:    422,
		CodeBadQuery:         422,
		CodeOverloaded:       429,
		CodeInternal:         500,
		CodeUnavailable:      503,
		CodeDeadline:         504,
	}
	if len(StatusByCode) != len(want) {
		t.Fatalf("StatusByCode has %d codes, want %d — extend this test with the new code", len(StatusByCode), len(want))
	}
	for code, status := range want {
		if got := StatusByCode[code]; got != status {
			t.Errorf("code %q → %d, want %d", code, got, status)
		}
	}
}

// TestPage pins the pagination contract the list endpoints share.
func TestPage(t *testing.T) {
	items := make([]int, 45)
	for i := range items {
		items[i] = i
	}
	for _, tc := range []struct {
		offset, limit  int
		wantLen        int
		wantFirst      int
		wantNextCursor string
	}{
		{0, 0, 20, 0, "20"},   // default page size
		{20, 0, 20, 20, "40"}, // follow cursor
		{40, 0, 5, 40, ""},    // final partial page
		{0, 1000, 45, 0, ""},  // limit clamps to MaxPageSize (100) ≥ len
		{0, 10, 10, 0, "10"},  // explicit limit
		{100, 10, 0, 0, ""},   // past the end
		{-5, 10, 10, 0, "10"}, // negative offset clamps to start
	} {
		page, next := Page(items, tc.offset, tc.limit)
		if len(page) != tc.wantLen || next != tc.wantNextCursor {
			t.Errorf("Page(offset=%d, limit=%d) = %d items, cursor %q; want %d items, cursor %q",
				tc.offset, tc.limit, len(page), next, tc.wantLen, tc.wantNextCursor)
			continue
		}
		if tc.wantLen > 0 && page[0] != tc.wantFirst {
			t.Errorf("Page(offset=%d) starts at %d, want %d", tc.offset, page[0], tc.wantFirst)
		}
	}
	// Empty input still yields a non-nil (marshal-as-[]) page.
	if page, next := Page([]int(nil), 0, 10); page == nil || next != "" {
		t.Errorf("Page(nil) = %v, %q; want empty slice, no cursor", page, next)
	}
}

// TestPageWindow pins the window a list endpoint ranks before it knows its
// list: End is offset plus the page size the limit resolves to, saturating
// rather than overflowing, and Slice over a head of the list's first End
// items (all of them when the list is shorter) answers what Page answers
// over the whole list.
func TestPageWindow(t *testing.T) {
	for _, tc := range []struct {
		offset, limit int
		want          Window
	}{
		{0, 0, Window{0, DefaultPageSize}},
		{-5, 7, Window{0, 7}},
		{20, 1000, Window{20, 20 + MaxPageSize}},
		{math.MaxInt - 5, 10, Window{math.MaxInt - 5, math.MaxInt}},
		{math.MaxInt, 0, Window{math.MaxInt, math.MaxInt}},
	} {
		if got := PageWindow(tc.offset, tc.limit); got != tc.want {
			t.Errorf("PageWindow(%d, %d) = %+v, want %+v", tc.offset, tc.limit, got, tc.want)
		}
	}
	for total := 0; total <= 130; total += 13 {
		items := make([]int, total)
		for i := range items {
			items[i] = i
		}
		for _, offset := range []int{0, 1, 19, 20, total - 1, total, total + 5, math.MaxInt} {
			for _, limit := range []int{0, 1, 7, 100, 1000} {
				w := PageWindow(offset, limit)
				head := items[:min(w.End, total)]
				gotPage, gotNext := Slice(w, head, total)
				wantPage, wantNext := Page(items, offset, limit)
				if !reflect.DeepEqual(gotPage, wantPage) || gotNext != wantNext {
					t.Errorf("total %d, offset %d, limit %d: Slice = %v, %q; Page = %v, %q",
						total, offset, limit, gotPage, gotNext, wantPage, wantNext)
				}
			}
		}
	}
}

// TestWriteErrorContract checks status derivation, the Retry-After hint on
// backpressure codes, and that an unknown code degrades to 500 internal.
func TestWriteErrorContract(t *testing.T) {
	for _, tc := range []struct {
		code           string
		wantStatus     int
		wantCode       string
		wantRetryAfter bool
	}{
		{CodeOverloaded, 429, CodeOverloaded, true},
		{CodeUnavailable, 503, CodeUnavailable, true},
		{CodeDeadline, 504, CodeDeadline, false},
		{"no_such_code", 500, CodeInternal, false},
	} {
		rec := httptest.NewRecorder()
		WriteError(rec, tc.code, "boom")
		if rec.Code != tc.wantStatus {
			t.Errorf("%s: status = %d, want %d", tc.code, rec.Code, tc.wantStatus)
		}
		if got := rec.Header().Get("Retry-After") != ""; got != tc.wantRetryAfter {
			t.Errorf("%s: Retry-After present = %v, want %v", tc.code, got, tc.wantRetryAfter)
		}
		var env Envelope
		if err := json.NewDecoder(rec.Body).Decode(&env); err != nil {
			t.Fatal(err)
		}
		if env.Error == nil || env.Error.Code != tc.wantCode {
			t.Errorf("%s: error = %+v, want code %q", tc.code, env.Error, tc.wantCode)
		}
		if env.Result != nil {
			t.Errorf("%s: error envelope carries a result", tc.code)
		}
	}
}
