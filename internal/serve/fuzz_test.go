package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
)

// FuzzRunRequest drives arbitrary bodies through the daemon's admission
// path: the strict decoder, request and scenario resolution, the
// execution plan and the canonical key. Nothing may panic; every
// scenario the daemon accepts must plan; and an accepted request,
// marshaled and decoded again, must resolve to the same keys, so a
// journaled request recovers under the keys its first admission used.
func FuzzRunRequest(f *testing.F) {
	seeds := []string{
		`{"scenarios":[{"name":"plain","cycles":1000}]}`,
		`{"scenarios":[{"cycles":2000,"faults":{"seed":3,"rules":[
			{"kind":"retry","slave":0,"prob":0.2,"retries":2},
			{"kind":"split","count":1,"hold":5},
			{"kind":"data-flip","master":1,"mask":17}]}}]}`,
		`{"scenarios":[{"cycles":1500,"analyzer":{"style":"local",
			"dpm":{"idle_threshold":8,"wake_energy_J":1e-12},
			"tech":{"vdd_V":1.2,"cpd_F":2e-14,"co_F":5e-14}}}]}`,
		`{"scenarios":[{"cycles":1000,"workloads":[
			{"seed":1,"sequences":4,"pairs_min":1,"pairs_max":3,"idle_max":2,"addr_size":4096,"pattern":"low_activity"},
			{"seed":2,"sequences":2,"pairs_min":2,"pairs_max":2,"addr_size":8192,"pattern":"counter","burst_beats":4}]}]}`,
		`{"accuracy":"transaction","backend":"lanes","scenarios":[
			{"cycles":3000},{"cycles":3000,"backend":"auto","accuracy":"cycle","skip_analyzer":true}]}`,
		`{"scenarios":[{"name":"topo","cycles":1000,"topology":` + paperTwinJSON + `,"analyzer":{"style":"private"}}]}`,
		`{"async":true,"timeout_ms":50,"no_cache":true,"scenarios":[{"cycles":1}]}`,
		`{"scenarios":[{"name":"plain","cycles":1000}]}xyz`,
		`{"scenarios":[{"name":"plain","cycles":1000}]} {"scenarios":[]}`,
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	s := New(Config{Workers: 1})
	decode := func(body []byte) (RunRequest, error) {
		var req RunRequest
		err := s.decode(httptest.NewRequest(http.MethodPost, "/v1/run", bytes.NewReader(body)), &req)
		return req, err
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		req, err := decode(body)
		if err != nil {
			return
		}
		scenarios, keys, err := s.resolveRequest(&req)
		if err != nil {
			return
		}
		for i := range scenarios {
			if _, err := scenarios[i].Plan(); err != nil {
				t.Fatalf("accepted scenario %d does not plan: %v\nbody %s", i, err, body)
			}
			if key, _ := scenarios[i].CanonicalKey(); key != keys[i] {
				t.Fatalf("scenario %d: resolved key %q, CanonicalKey %q", i, keys[i], key)
			}
		}
		wire, err := json.Marshal(&req)
		if err != nil {
			t.Fatalf("marshaling an accepted request: %v", err)
		}
		again, err := decode(wire)
		if err != nil {
			t.Fatalf("re-decoding an accepted request: %v\nwire %s", err, wire)
		}
		_, keys2, err := s.resolveRequest(&again)
		if err != nil {
			t.Fatalf("re-resolving an accepted request: %v\nwire %s", err, wire)
		}
		if !reflect.DeepEqual(keys, keys2) {
			t.Fatalf("keys moved across a marshal round trip:\n%q\n%q\nbody %s\nwire %s", keys, keys2, body, wire)
		}
	})
}
