package server

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"reflect"
	"testing"

	"rubix/internal/sim"
)

// FuzzRunSpec feeds arbitrary bytes through the request decoding path of
// /run and /batch: the strict decodeBody, then validateSpec on every spec.
// No input may panic, and anything the handlers would accept must
// re-marshal and strictly decode back to an equal value, so the service
// only ever runs a spec it fully decoded.
func FuzzRunSpec(f *testing.F) {
	spec, err := json.Marshal(testRunSpec())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(spec)
	f.Add([]byte(`{"specs":[` + string(spec) + `,` + string(spec) + `]}`))
	f.Add([]byte(`{"Workload":"xz","Mapping":"coffeelake","Mitigation":"none","TRH":0}`))
	f.Add([]byte(`{"Workload":"xz","Mapping":"coffeelake","Mitigation":"none","TRH":128,"Extra":1}`))
	f.Add([]byte(`{"specs":[]}`))
	f.Add([]byte(`{"Workload":"xz"} {}`))
	f.Add([]byte(`{"Workload":"é\ud800","Mapping":"m","Mitigation":"n","TRH":1e2,"LineCensus":true}`))

	// decode runs decodeBody on raw as a request body.
	decode := func(raw []byte, v any) error {
		return decodeBody(httptest.NewRequest("POST", "/", bytes.NewReader(raw)), v)
	}
	// roundTrip re-marshals an accepted value and strictly decodes it back.
	roundTrip := func(t *testing.T, got, back any) {
		t.Helper()
		raw, err := json.Marshal(got)
		if err != nil {
			t.Fatalf("re-marshal of accepted %+v: %v", got, err)
		}
		if err := decode(raw, back); err != nil {
			t.Fatalf("strict decode of re-marshaled %s: %v", raw, err)
		}
		if !reflect.DeepEqual(got, back) {
			t.Fatalf("round trip changed the value: %+v → %+v", got, back)
		}
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		var spec sim.RunSpec
		if decode(raw, &spec) == nil && validateSpec(spec) == nil {
			roundTrip(t, &spec, new(sim.RunSpec))
		}

		var req BatchRequest
		if decode(raw, &req) != nil || len(req.Specs) == 0 {
			return
		}
		for _, s := range req.Specs {
			if validateSpec(s) != nil {
				return
			}
		}
		roundTrip(t, &req, new(BatchRequest))
	})
}
