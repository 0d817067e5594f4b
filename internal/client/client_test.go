package client

import (
	"testing"
	"time"
)

// Connection-level behavior is covered end-to-end in internal/server's
// tests; these tests cover the client's own error paths, which need no
// server.

// A refused connection fails DialConn at once with the refusal, whether or
// not a dial budget is set: the budget bounds a peer that never answers,
// not one that says no.
func TestDialRefused(t *testing.T) {
	start := time.Now()
	if _, err := DialConn("127.0.0.1:1", WithDialTimeout(10*time.Second)); err == nil {
		t.Fatal("expected connection error")
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("a refused dial waited out its budget")
	}
}
