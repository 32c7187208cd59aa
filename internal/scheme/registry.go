package scheme

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"github.com/chronus-sdn/chronus/internal/dynflow"
	"github.com/chronus-sdn/chronus/internal/obs"
)

// ErrUnknown reports a Lookup or Solve against a name nobody registered.
var ErrUnknown = fmt.Errorf("scheme: unknown scheme")

var (
	regMu    sync.RWMutex
	registry = map[string]Scheme{}
)

// Register adds a scheme under its Name. It panics on an empty name or a
// duplicate registration — both are programming errors that must surface at
// init time, not at first lookup. Registration order is irrelevant: Names
// and All expose the registry in sorted-name order, so every consumer
// iterates schemes deterministically no matter which init ran first.
func Register(s Scheme) {
	name := s.Name()
	if name == "" {
		panic("scheme: Register with empty name")
	}
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("scheme: duplicate registration of %q", name))
	}
	registry[name] = s
}

// Get returns the scheme registered under name.
func Get(name string) (Scheme, bool) {
	regMu.RLock()
	defer regMu.RUnlock()
	s, ok := registry[name]
	return s, ok
}

// Lookup is Get with a self-describing error listing every registered name
// (what a CLI or REST caller should see on a typo).
func Lookup(name string) (Scheme, error) {
	if s, ok := Get(name); ok {
		return s, nil
	}
	return nil, fmt.Errorf("%w %q (registered: %s)", ErrUnknown, name, strings.Join(Names(), ", "))
}

// Names returns the registered scheme names in sorted order.
func Names() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	names := make([]string, 0, len(registry))
	for name := range registry {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// All returns the registered schemes in Names order.
func All() []Scheme {
	names := Names()
	regMu.RLock()
	defer regMu.RUnlock()
	out := make([]Scheme, len(names))
	for i, name := range names {
		out[i] = registry[name]
	}
	return out
}

// Solve looks up name and runs it, recording a scheme-labelled solve
// counter on o.Obs (when set) regardless of which scheme ran — the one
// instrumentation point every consumer shares. When o.Trace is set it
// additionally records a "solve" span (parented under o.Span, stamped
// at o.VT) so an update's span tree shows which scheme planned it and
// how it came out.
func Solve(name string, in *dynflow.Instance, o Options) (*Result, error) {
	s, err := Lookup(name)
	if err != nil {
		return nil, err
	}
	sp := o.Trace.StartSpan(o.VT, obs.OpSolve, o.Span, obs.A("scheme", name))
	res, err := s.Solve(in, o)
	sp.End(o.VT, obs.A("outcome", outcomeOf(res, err)))
	observe(o.Obs, name, res, err)
	return res, err
}
