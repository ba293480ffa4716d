package gateway

import (
	"net/url"
	"reflect"
	"testing"
)

// FuzzRoutingIdentity feeds RoutingIdentity arbitrary query strings with
// arbitrary pagination values. The contract under any input: no panic; the
// caller's values are left as they were; the identity parses back without
// error and holds no cursor or limit; it is a fixed point (the identity of
// the parsed identity is the identity itself); and setting or deleting
// cursor and limit never changes it, so every page of a query routes to the
// replica that minted its cursor. Seeds are the spellings of
// TestGetProxyCanonicalQueryAffinity.
func FuzzRoutingIdentity(f *testing.F) {
	for _, raw := range []string{
		"op=above&value=7",  // canonical
		"value=7&op=above",  // reordered
		"op=above&value=7&", // trailing separator
	} {
		f.Add(raw, "", "")
		f.Add(raw, "20", "7")
	}
	f.Fuzz(func(t *testing.T, raw, cursor, limit string) {
		// Like URL.Query: keep whatever parsed, ignore the error.
		vals, _ := url.ParseQuery(raw)
		orig := copyValues(vals)

		id := RoutingIdentity(vals)
		if !reflect.DeepEqual(vals, orig) {
			t.Fatalf("RoutingIdentity(%q) mutated its argument: %v, was %v", raw, vals, orig)
		}
		parsed, err := url.ParseQuery(id)
		if err != nil {
			t.Fatalf("identity %q of %q does not parse: %v", id, raw, err)
		}
		if parsed.Has("cursor") || parsed.Has("limit") {
			t.Fatalf("identity %q of %q keeps pagination parameters", id, raw)
		}
		if again := RoutingIdentity(parsed); again != id {
			t.Fatalf("identity of identity %q = %q", id, again)
		}

		set := copyValues(vals)
		set.Set("cursor", cursor)
		set.Set("limit", limit)
		deleted := copyValues(vals)
		deleted.Del("cursor")
		deleted.Del("limit")
		for name, v := range map[string]url.Values{"set": set, "deleted": deleted} {
			if got := RoutingIdentity(v); got != id {
				t.Fatalf("%q with cursor/limit %s: identity %q, want %q", raw, name, got, id)
			}
		}
	})
}

func copyValues(vals url.Values) url.Values {
	out := make(url.Values, len(vals))
	for k, vv := range vals {
		out[k] = append([]string(nil), vv...)
	}
	return out
}
