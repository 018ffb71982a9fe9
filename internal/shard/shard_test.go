package shard

import (
	"reflect"
	"testing"
)

func TestParseSet(t *testing.T) {
	s, err := ParseSet("a=http://127.0.0.1:7071, b=127.0.0.1:7072/ ,")
	if err != nil {
		t.Fatalf("ParseSet: %v", err)
	}
	want := []Member{
		{Name: "a", Addr: "http://127.0.0.1:7071"},
		{Name: "b", Addr: "http://127.0.0.1:7072"},
	}
	if !reflect.DeepEqual(s.Members(), want) {
		t.Fatalf("members = %+v, want %+v", s.Members(), want)
	}
	if m, ok := s.Lookup("b"); !ok || m.Addr != "http://127.0.0.1:7072" {
		t.Fatalf("Lookup(b) = %+v, %v", m, ok)
	}
}

func TestParseSetBareAddrsGetPositionalNames(t *testing.T) {
	s, err := ParseSet("127.0.0.1:7071,127.0.0.1:7072")
	if err != nil {
		t.Fatalf("ParseSet: %v", err)
	}
	if s.Members()[0].Name != "s0" || s.Members()[1].Name != "s1" {
		t.Fatalf("positional names wrong: %+v", s.Members())
	}
}

func TestParseSetRejectsBadSpecs(t *testing.T) {
	for _, spec := range []string{"", " , ", "a=,b=x", "=addr", "a=x,a=y"} {
		if _, err := ParseSet(spec); err == nil {
			t.Errorf("ParseSet(%q) accepted, want error", spec)
		}
	}
}

// TestRankForDeterministic: two independently parsed sets (different
// declaration order) must agree on every ranking — the property the
// router/shard split depends on, since each process computes ownership
// alone.
func TestRankForDeterministic(t *testing.T) {
	s1, _ := ParseSet("a=h:1,b=h:2,c=h:3")
	s2, _ := ParseSet("c=h:3,a=h:1,b=h:2")
	for _, sys := range []string{"HA8K", "Cab", "BG/Q Vulcan", "Teller"} {
		r1, r2 := s1.RankFor(sys), s2.RankFor(sys)
		for i := range r1 {
			if r1[i].Name != r2[i].Name {
				t.Fatalf("ranking for %q differs by declaration order: %v vs %v", sys, r1, r2)
			}
		}
	}
}

// TestRankForCaseInsensitiveKey: clients may spell a system "ha8k" or
// "HA8K"; both must route to the same shard.
func TestRankForCaseInsensitiveKey(t *testing.T) {
	s, _ := ParseSet("a=h:1,b=h:2,c=h:3")
	if s.Primary("HA8K").Name != s.Primary("ha8k").Name {
		t.Fatal("system-name case changed the owner")
	}
}

// TestRankForMinimalReassignment: removing one member must only reassign
// the systems that member owned — rendezvous hashing's defining property.
func TestRankForMinimalReassignment(t *testing.T) {
	full, _ := ParseSet("a=h:1,b=h:2,c=h:3")
	systems := []string{"HA8K", "Cab", "BG/Q Vulcan", "Teller"}
	for _, removed := range []string{"a", "b", "c"} {
		spec := ""
		for _, m := range full.Members() {
			if m.Name != removed {
				spec += m.Name + "=" + m.Addr + ","
			}
		}
		reduced, err := ParseSet(spec)
		if err != nil {
			t.Fatal(err)
		}
		for _, sys := range systems {
			before := full.Primary(sys)
			after := reduced.Primary(sys)
			if before.Name != removed && after.Name != before.Name {
				t.Errorf("removing %q moved %q from %q to %q (should be untouched)",
					removed, sys, before.Name, after.Name)
			}
		}
	}
}

func TestSecondaryDiffersFromPrimary(t *testing.T) {
	s, _ := ParseSet("a=h:1,b=h:2,c=h:3")
	for _, sys := range []string{"HA8K", "Cab", "BG/Q Vulcan", "Teller"} {
		ranked := s.RankFor(sys)
		if len(ranked) != 3 {
			t.Fatalf("%q ranks %d members, want 3", sys, len(ranked))
		}
		if ranked[1].Name == s.Primary(sys).Name {
			t.Fatalf("secondary == primary for %q", sys)
		}
	}
	single, _ := ParseSet("a=h:1")
	if n := len(single.RankFor("HA8K")); n != 1 {
		t.Fatalf("single-member set ranks %d members", n)
	}
}

// TestAssignPartition: across all shards, every system appears exactly
// once as eager (its primary) and exactly once as lazy (its secondary).
func TestAssignPartition(t *testing.T) {
	s, _ := ParseSet("a=h:1,b=h:2,c=h:3")
	systems := []string{"HA8K", "Cab", "BG/Q Vulcan", "Teller"}
	eagerCount := map[string]int{}
	lazyCount := map[string]int{}
	for _, m := range s.Members() {
		eager, lazy := Assign(s, m.Name, systems)
		for _, sys := range eager {
			eagerCount[sys]++
			if s.Primary(sys).Name != m.Name {
				t.Errorf("%q eager on %q but not its primary", sys, m.Name)
			}
		}
		for _, sys := range lazy {
			lazyCount[sys]++
			if s.RankFor(sys)[1].Name != m.Name {
				t.Errorf("%q lazy on %q but not its secondary", sys, m.Name)
			}
		}
	}
	for _, sys := range systems {
		if eagerCount[sys] != 1 || lazyCount[sys] != 1 {
			t.Errorf("%q: eager on %d shards, lazy on %d; want 1 and 1",
				sys, eagerCount[sys], lazyCount[sys])
		}
	}
	// An unknown self is a spare: nothing eager.
	eager, _ := Assign(s, "nobody", systems)
	if len(eager) != 0 {
		t.Fatalf("unknown shard owns %v", eager)
	}
}
