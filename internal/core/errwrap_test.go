package core

import (
	"context"
	"errors"
	"strings"
	"testing"

	"repro/internal/data"
	"repro/internal/query"
)

// Regression for the %v→%w wrapping fix surfaced by skewlint's errwrap
// analyzer: invalid-query failures from ExecuteContext and Standing must
// expose ErrInvalidQuery to errors.Is and keep the structural detail from
// query.Validate reachable in the chain. Under the old %v formatting the
// chain was flattened to text and errors.Is found nothing.
func TestInvalidQueryErrorsWrapSentinel(t *testing.T) {
	bad := &query.Query{Name: "bad"} // no atoms: Validate rejects it
	db := data.NewDatabase()
	e := newEngine(t, Config{P: 4, Seed: 1})

	_, err := e.ExecuteContext(context.Background(), bad, db, ExecOptions{})
	if !errors.Is(err, ErrInvalidQuery) {
		t.Fatalf("ExecuteContext error %q does not wrap ErrInvalidQuery", err)
	}
	if detail := bad.Validate().Error(); !strings.Contains(err.Error(), detail) {
		t.Fatalf("ExecuteContext error %q lost the Validate detail %q", err, detail)
	}

	h, err := e.Standing(context.Background(), bad, db, ExecOptions{})
	if h != nil {
		defer h.Close()
	}
	if !errors.Is(err, ErrInvalidQuery) {
		t.Fatalf("Standing error %q does not wrap ErrInvalidQuery", err)
	}
}
