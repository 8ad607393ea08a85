// Package faultinj is the deterministic, seeded fault-injection subsystem
// of the simulated platform. A fault spec names (site, kind) pairs with a
// probability and an optional duration; every rule draws from its own
// splitmix64 stream derived from (seed, site, kind), so any run — serial
// or parallel — is reproducible byte-for-byte from the same seed and spec.
//
// Consumers hold a possibly-nil *Injector and query it unconditionally:
// the nil injector answers "no fault" at zero cost, so the fault plane
// costs nothing when injection is off.
//
// Fault sites wired into the platform (see docs/ROBUSTNESS.md):
//
//	dma.fail      descriptor DMA burst aborts (no data delivered)
//	dma.delay     descriptor DMA burst takes extra time
//	dma.dup       descriptor DMA burst is delivered twice (replay)
//	msi.drop      completion MSI lost (data arrives, wake does not)
//	msi.delay     completion MSI delivered late
//	ipi.drop      TLB shootdown IPI lost (retried until acked)
//	ipi.delay     TLB shootdown IPI delivered late
//	cpu.spurious  core raises a ghost wrong-ISA fetch fault (drawn per core)
//
// Multi-board platforms additionally answer instanced sites: board i's DMA
// engine resolves "dma<i>" before falling back to the generic "dma" rule,
// and its MSI path resolves "msi<i>" before "msi" (board 0 keeps the bare
// names). "dma1.fail=1" therefore kills exactly one board's descriptor
// transport — the failover scenarios of docs/SCALING.md.
package faultinj

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"flick/internal/sim"
)

// Rule is one parsed fault clause: inject kind at site with probability
// Prob; Dur parameterizes delay-type kinds.
type Rule struct {
	Site string
	Kind string
	Prob float64
	Dur  sim.Duration
}

// String renders the rule in spec grammar.
func (r Rule) String() string {
	s := fmt.Sprintf("%s.%s=%g", r.Site, r.Kind, r.Prob)
	if r.Dur != 0 {
		s += ":" + durString(r.Dur)
	}
	return s
}

// durString renders a duration in the spec's unit grammar.
func durString(d sim.Duration) string {
	switch {
	case d%sim.Millisecond == 0 && d != 0:
		return fmt.Sprintf("%dms", d/sim.Millisecond)
	case d%sim.Microsecond == 0 && d != 0:
		return fmt.Sprintf("%dus", d/sim.Microsecond)
	default:
		return fmt.Sprintf("%dns", d/sim.Nanosecond)
	}
}

// Spec is a parsed fault specification: an ordered list of rules.
type Spec struct {
	Rules []Rule
}

// Empty reports whether the spec injects nothing.
func (s Spec) Empty() bool { return len(s.Rules) == 0 }

// String renders the spec in canonical (input-ordered) grammar.
func (s Spec) String() string {
	parts := make([]string, len(s.Rules))
	for i, r := range s.Rules {
		parts[i] = r.String()
	}
	return strings.Join(parts, ",")
}

// Parse reads a fault spec. Grammar:
//
//	spec   := clause ("," clause)*
//	clause := site "." kind "=" prob [":" dur]
//	prob   := float in [0, 1]
//	dur    := integer ("ns" | "us" | "ms")
//
// Example: "dma.fail=0.05,msi.drop=0.1,msi.delay=0.2:25us". An empty
// string parses to the empty (inject-nothing) spec.
func Parse(s string) (Spec, error) {
	var spec Spec
	s = strings.TrimSpace(s)
	if s == "" {
		return spec, nil
	}
	seen := make(map[string]bool)
	for _, clause := range strings.Split(s, ",") {
		clause = strings.TrimSpace(clause)
		key, val, ok := strings.Cut(clause, "=")
		if !ok {
			return Spec{}, fmt.Errorf("faultinj: clause %q: want site.kind=prob[:dur]", clause)
		}
		site, kind, ok := strings.Cut(key, ".")
		if !ok || site == "" || kind == "" {
			return Spec{}, fmt.Errorf("faultinj: clause %q: fault name must be site.kind", clause)
		}
		if seen[key] {
			return Spec{}, fmt.Errorf("faultinj: duplicate clause for %s", key)
		}
		seen[key] = true
		probStr, durStr, hasDur := strings.Cut(val, ":")
		prob, err := strconv.ParseFloat(probStr, 64)
		if err != nil || prob < 0 || prob > 1 {
			return Spec{}, fmt.Errorf("faultinj: clause %q: probability must be a float in [0, 1]", clause)
		}
		var dur sim.Duration
		if hasDur {
			if dur, err = parseDur(durStr); err != nil {
				return Spec{}, fmt.Errorf("faultinj: clause %q: %v", clause, err)
			}
		}
		if strings.HasSuffix(kind, "delay") && dur <= 0 {
			return Spec{}, fmt.Errorf("faultinj: clause %q: %s needs a positive duration (site.kind=prob:dur)", clause, kind)
		}
		spec.Rules = append(spec.Rules, Rule{Site: site, Kind: kind, Prob: prob, Dur: dur})
	}
	return spec, nil
}

// parseDur reads "250ns" / "25us" / "1ms".
func parseDur(s string) (sim.Duration, error) {
	for _, u := range []struct {
		suffix string
		unit   sim.Duration
	}{{"ns", sim.Nanosecond}, {"us", sim.Microsecond}, {"ms", sim.Millisecond}} {
		if n, ok := strings.CutSuffix(s, u.suffix); ok {
			v, err := strconv.ParseUint(n, 10, 32)
			if err != nil {
				return 0, fmt.Errorf("bad duration %q (want a positive integer count of ns|us|ms)", s)
			}
			if v == 0 {
				return 0, fmt.Errorf("duration %q must be positive", s)
			}
			return sim.Duration(v) * u.unit, nil
		}
	}
	return 0, fmt.Errorf("bad duration %q (want <int>ns|us|ms)", s)
}

// stream is one rule's private splitmix64 generator.
type stream struct {
	state uint64
	rule  Rule
	hits  *sim.Counter
}

// next returns the next uniform draw in [0, 1).
func (s *stream) next() float64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return float64(z>>11) / (1 << 53)
}

// Injector answers fault queries for one simulated machine. All methods
// are nil-safe no-ops, so components query unconditionally.
type Injector struct {
	env     *sim.Env
	seed    int64
	spec    Spec
	streams map[string]*stream
}

// New builds an injector over env from a parsed spec. Every rule gets its
// own splitmix64 stream seeded from (seed, site.kind) and a pre-registered
// fault.injected.<site>.<kind> counter, so metrics snapshots list every
// injectable fault even when its count stays zero.
func New(env *sim.Env, seed int64, spec Spec) *Injector {
	inj := &Injector{env: env, seed: seed, spec: spec, streams: make(map[string]*stream)}
	reg := env.Metrics()
	for _, r := range spec.Rules {
		key := r.Site + "." + r.Kind
		inj.streams[key] = &stream{
			state: streamSeed(seed, key),
			rule:  r,
			hits:  reg.Counter("fault.injected." + key),
		}
	}
	return inj
}

// streamSeed mixes the base seed with the rule name so every (site, kind)
// pair draws independently (splitmix64 finalizer over an FNV-1a hash of
// the name, offset by the seed).
func streamSeed(seed int64, key string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= 1099511628211
	}
	z := uint64(seed) + h
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Seed returns the injector's base seed.
func (inj *Injector) Seed() int64 {
	if inj == nil {
		return 0
	}
	return inj.seed
}

// Spec returns the injector's parsed spec (empty for nil injectors).
func (inj *Injector) Spec() Spec {
	if inj == nil {
		return Spec{}
	}
	return inj.spec
}

// Enabled reports whether any rule can fire.
func (inj *Injector) Enabled() bool { return inj != nil && !inj.spec.Empty() }

// hit records an injected fault: bump the rule counter and emit a trace
// event so fault decisions are visible in the event stream.
func (inj *Injector) hit(s *stream) {
	s.hits.Inc()
	inj.env.Emit(sim.Event{Comp: "faultinj", Kind: sim.KindFault, Note: s.rule.Site + "." + s.rule.Kind})
}

// Roll draws the (site, kind) stream and reports whether the fault fires
// this time. Sites without a matching rule never fire and consume no
// randomness.
func (inj *Injector) Roll(site, kind string) bool {
	if inj == nil {
		return false
	}
	s, ok := inj.streams[site+"."+kind]
	if !ok || s.rule.Prob == 0 {
		return false
	}
	if s.next() >= s.rule.Prob {
		return false
	}
	inj.hit(s)
	return true
}

// HasRule reports whether the spec carries a rule for (site, kind).
// Instanced components (per-board DMA engines, per-board MSI paths) use it
// to prefer their instance-specific site over the generic one without
// consuming randomness from either stream.
func (inj *Injector) HasRule(site, kind string) bool {
	if inj == nil {
		return false
	}
	_, ok := inj.streams[site+"."+kind]
	return ok
}

// RollAt is Roll against an instance site with a generic fallback: the
// instance-specific rule wins when the spec names it, otherwise the
// fallback site's rule (if any) is drawn. With site == fallback this is
// exactly Roll, stream draws included.
func (inj *Injector) RollAt(site, fallback, kind string) bool {
	if inj.HasRule(site, kind) {
		return inj.Roll(site, kind)
	}
	return inj.Roll(fallback, kind)
}

// DelayAt is Delay with the same instance-then-generic site resolution as
// RollAt.
func (inj *Injector) DelayAt(site, fallback, kind string) (sim.Duration, bool) {
	if inj.HasRule(site, kind) {
		return inj.Delay(site, kind)
	}
	return inj.Delay(fallback, kind)
}

// Delay is Roll for delay-type kinds: when the rule fires it returns the
// rule's configured duration and true.
func (inj *Injector) Delay(site, kind string) (sim.Duration, bool) {
	if inj == nil {
		return 0, false
	}
	s, ok := inj.streams[site+"."+kind]
	if !ok || s.rule.Prob == 0 {
		return 0, false
	}
	if s.next() >= s.rule.Prob {
		return 0, false
	}
	inj.hit(s)
	return s.rule.Dur, true
}

// RollFn resolves the (site, kind) rule once for one instance, such as a
// core, and returns the instance's draw for per-instruction hot paths, or
// nil when no rule exists — so an absent rule costs literally nothing per
// query. Each instance draws from a private stream seeded from (seed,
// site.kind, instance), so its faults follow from its own draws alone,
// never from how instances interleave; the rule and its counter stay
// shared. A draw that fires ends p's run-ahead window (Proc.Sync) before
// the fault is counted and traced, and so before the caller delivers it.
func (inj *Injector) RollFn(site, kind, instance string) func(p *sim.Proc) bool {
	if inj == nil {
		return nil
	}
	key := site + "." + kind
	shared, ok := inj.streams[key]
	if !ok || shared.rule.Prob == 0 {
		return nil
	}
	s := &stream{state: streamSeed(inj.seed, key+"@"+instance), rule: shared.rule, hits: shared.hits}
	return func(p *sim.Proc) bool {
		if s.next() >= s.rule.Prob {
			return false
		}
		p.Sync()
		inj.hit(s)
		return true
	}
}

// Counts returns the injected-fault counts per rule, name-sorted — a
// convenience for soak summaries.
func (inj *Injector) Counts() []struct {
	Name  string
	Count uint64
} {
	if inj == nil {
		return nil
	}
	out := make([]struct {
		Name  string
		Count uint64
	}, 0, len(inj.streams))
	for key, s := range inj.streams {
		out = append(out, struct {
			Name  string
			Count uint64
		}{key, s.hits.Value()})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
