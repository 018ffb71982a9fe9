// Package shard is varpowerd's horizontal story: a static set of shard
// processes, each owning a subset of the system presets, fronted by a
// router that proxies control-plane requests to the owner and fails over
// to a designated secondary when the owner dies.
//
// Ownership is rendezvous (highest-random-weight) hashing: every
// (system, shard) pair hashes to a weight, and a system's shards ranked by
// descending weight give its primary (rank 0), its secondary (rank 1), and
// so on. Rendezvous keeps two properties the failover design leans on:
// every router computes the same ranking with no coordination, and
// removing one shard reassigns only that shard's systems — everyone else's
// ownership is untouched.
//
// The shard set is static configuration (the same -shard-set string on
// every process), which is deliberate: varpower's fleet is a handful of
// shards owning four system presets, not a dynamic membership problem.
package shard

import (
	"fmt"
	"sort"
	"strings"

	"varpower/internal/xrand"
)

// Member is one shard process: a stable name (the hash identity — renaming
// a shard reassigns its systems, changing its address does not) and the
// base URL it serves on.
type Member struct {
	Name string `json:"name"`
	Addr string `json:"addr"`
}

// Set is an ordered shard set. The order is presentation only; ownership
// depends on names alone.
type Set struct {
	members []Member
	byName  map[string]Member
}

// ParseSet parses a shard-set flag: comma-separated "name=addr" entries
// ("a=http://127.0.0.1:7071,b=http://127.0.0.1:7072"). A bare addr gets a
// positional name ("s0", "s1", ...) — fine for ad-hoc fleets, but explicit
// names are what keep ownership stable across config edits.
func ParseSet(spec string) (*Set, error) {
	s := &Set{byName: make(map[string]Member)}
	for i, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		var m Member
		if name, addr, ok := strings.Cut(part, "="); ok {
			m = Member{Name: strings.TrimSpace(name), Addr: strings.TrimSpace(addr)}
		} else {
			m = Member{Name: fmt.Sprintf("s%d", i), Addr: part}
		}
		if m.Name == "" || m.Addr == "" {
			return nil, fmt.Errorf("shard: bad member %q (want name=addr)", part)
		}
		if !strings.Contains(m.Addr, "://") {
			m.Addr = "http://" + m.Addr
		}
		m.Addr = strings.TrimRight(m.Addr, "/")
		if _, dup := s.byName[m.Name]; dup {
			return nil, fmt.Errorf("shard: duplicate member name %q", m.Name)
		}
		s.members = append(s.members, m)
		s.byName[m.Name] = m
	}
	if len(s.members) == 0 {
		return nil, fmt.Errorf("shard: empty shard set")
	}
	return s, nil
}

// Members returns the set in declaration order.
func (s *Set) Members() []Member { return s.members }

// Len returns the member count.
func (s *Set) Len() int { return len(s.members) }

// Lookup finds a member by name.
func (s *Set) Lookup(name string) (Member, bool) {
	m, ok := s.byName[name]
	return m, ok
}

// weight is the rendezvous score of (key, member): FNV-1a over the joined
// identity. Deterministic across processes by construction — no seeds, no
// clock, nothing process-local.
func weight(key, member string) uint64 {
	return xrand.HashString(strings.ToLower(key) + "\x00" + member)
}

// RankFor returns the members ranked for key: descending rendezvous
// weight, names breaking (astronomically unlikely) ties. ranked[0] is the
// primary owner, ranked[1] the failover secondary.
func (s *Set) RankFor(key string) []Member {
	ranked := append([]Member{}, s.members...)
	sort.Slice(ranked, func(i, j int) bool {
		wi, wj := weight(key, ranked[i].Name), weight(key, ranked[j].Name)
		if wi != wj {
			return wi > wj
		}
		return ranked[i].Name < ranked[j].Name
	})
	return ranked
}

// Primary returns key's owning member.
func (s *Set) Primary(key string) Member { return s.RankFor(key)[0] }

// Assign splits systems for the shard named self: eager systems are the
// ones self primarily owns (built and calibrated at boot); lazy systems
// are the ones self is secondary for (registered, but materialised only if
// the router ever fails over to self — then preferentially from the
// primary's snapshot). Unknown self returns everything lazy, which is a
// safe posture for a spare.
func Assign(s *Set, self string, systems []string) (eager, lazy []string) {
	for _, sys := range systems {
		ranked := s.RankFor(sys)
		switch {
		case ranked[0].Name == self:
			eager = append(eager, sys)
		case len(ranked) > 1 && ranked[1].Name == self:
			lazy = append(lazy, sys)
		}
	}
	return eager, lazy
}
