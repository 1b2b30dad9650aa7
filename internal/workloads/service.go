package workloads

import (
	"fmt"
	"sort"
	"strings"
)

// ServiceOpMix is one traffic mix of the proteusd serving layer: the
// fractions of get/put/delete/cas/range operations a client population
// issues against the key-value store. The same mixes parameterize the
// `proteusbench loadgen` phases, sent over HTTP to the daemon, and the
// `service` scenario family, run in process. Both reach the same store,
// serve.Store: the daemon keeps one per shard, and the single-store
// scenarios (service-kv, -steady, -slo, -diurnal) run one shard's Store
// in process, with no wire, admission or line in front of it.
type ServiceOpMix struct {
	// Name labels the mix in phase specs and reports.
	Name string
	// Get, Put, Del, CAS and Range are operation fractions; they should
	// sum to 1 (Normalize fixes up small drift).
	Get, Put, Del, CAS, Range float64
}

// Normalize rescales the fractions to sum to 1 (a zero mix becomes
// all-gets).
func (m ServiceOpMix) Normalize() ServiceOpMix {
	sum := m.Get + m.Put + m.Del + m.CAS + m.Range
	if sum <= 0 {
		return ServiceOpMix{Name: m.Name, Get: 1}
	}
	m.Get /= sum
	m.Put /= sum
	m.Del /= sum
	m.CAS /= sum
	m.Range /= sum
	return m
}

// The named service mixes. read-heavy is a cache-like lookup mix,
// write-heavy flips the store into a mutation-dominated regime (inserts,
// deletes and CAS read-modify-writes), and scan issues long range reads
// whose large read sets overflow best-effort HTM — three regimes with
// different optimal TM configurations, which is what makes a phase shift
// between them trigger the monitor.
var serviceMixes = map[string]ServiceOpMix{
	"read-heavy":  {Name: "read-heavy", Get: 0.90, Put: 0.06, Del: 0.02, CAS: 0.02},
	"write-heavy": {Name: "write-heavy", Get: 0.20, Put: 0.35, Del: 0.25, CAS: 0.20},
	"scan":        {Name: "scan", Get: 0.28, Put: 0.02, Range: 0.70},
	// scan-heavy is almost pure range reads: the partitioner A/B mix,
	// where placement (hash scatter vs. contiguous spans) dominates the
	// fence count of a sharded deployment.
	"scan-heavy": {Name: "scan-heavy", Get: 0.06, Put: 0.04, Range: 0.90},
	"mixed":      {Name: "mixed", Get: 0.50, Put: 0.25, Del: 0.15, CAS: 0.10},
}

// ServiceMixByName returns a named service mix (read-heavy, write-heavy,
// scan, scan-heavy or mixed).
func ServiceMixByName(name string) (ServiceOpMix, error) {
	m, ok := serviceMixes[name]
	if !ok {
		return ServiceOpMix{}, fmt.Errorf("workloads: unknown service mix %q (have %s)", name, strings.Join(ServiceMixNames(), ", "))
	}
	return m, nil
}

// ServiceMixNames returns the sorted names of the built-in service mixes.
func ServiceMixNames() []string {
	out := make([]string, 0, len(serviceMixes))
	for name := range serviceMixes {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}
