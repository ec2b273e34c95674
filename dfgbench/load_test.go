package main

import (
	"context"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
)

// TestSendResendsTransportFaults serves a fixed list of answers and checks
// that send re-sends only transport faults, at most maxTries attempts in
// all.
func TestSendResendsTransportFaults(t *testing.T) {
	const fault = `{"ok":false,"error":"all 2 backend attempt(s) failed: wire: read batch result: EOF"}`
	const ok = `{"ok":true}`
	for _, tc := range []struct {
		name       string
		answers    []int // statuses served in order; 502 carries fault
		wantStatus int
		wantTries  int
	}{
		{"ok at once", []int{200}, 200, 1},
		{"ok after two faults", []int{502, 502, 200}, 200, 3},
		{"faults every time", []int{502, 502, 502, 200}, 502, maxTries},
		{"wrong answer is not re-sent", []int{422, 200}, 422, 1},
		{"timeout is re-sent", []int{408, 200}, 200, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var n atomic.Int64
			srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				status := tc.answers[n.Add(1)-1]
				w.WriteHeader(status)
				if status == http.StatusOK {
					w.Write([]byte(ok))
				} else {
					w.Write([]byte(fault))
				}
			}))
			defer srv.Close()
			status, _, err, tries := send(context.Background(), srv.Client(), srv.URL, &request{Body: []byte(`{}`)})
			if err != nil {
				t.Fatal(err)
			}
			if status != tc.wantStatus || tries != tc.wantTries {
				t.Errorf("status %d after %d tries, want %d after %d", status, tries, tc.wantStatus, tc.wantTries)
			}
			if int(n.Load()) != tries {
				t.Errorf("server saw %d attempts, send reported %d", n.Load(), tries)
			}
		})
	}
}
