package callgraph_test

import (
	"testing"

	"chant/internal/analysis/callgraph"
	"chant/internal/analysis/load"
)

// The ndtaint fixture module doubles as the call-graph fixture: it has a
// static cross-package chain, an interface with two implementations, and an
// external (stdlib) callee.
const fixture = "../ndtaint/testdata"

func buildFixture(t *testing.T) *callgraph.Graph {
	t.Helper()
	pkgs, err := load.Load(fixture, "./...")
	if err != nil {
		t.Fatalf("loading fixture: %v", err)
	}
	return callgraph.Build(pkgs)
}

func edgeTo(n *callgraph.Node, callee string) *callgraph.Edge {
	for i := range n.Edges {
		if n.Edges[i].Callee.ID == callee {
			return &n.Edges[i]
		}
	}
	return nil
}

func TestStaticEdges(t *testing.T) {
	g := buildFixture(t)
	step := g.Node("chant/internal/sim/kernel.Step")
	if step == nil {
		t.Fatal("no node for kernel.Step")
	}
	if step.Decl == nil {
		t.Error("kernel.Step loaded from source must carry its declaration")
	}
	if edgeTo(step, "chant/internal/util.Indirect") == nil {
		t.Errorf("kernel.Step has no edge to util.Indirect; edges: %v", edgeIDs(step))
	}
	indirect := g.Node("chant/internal/util.Indirect")
	if indirect == nil || edgeTo(indirect, "chant/internal/util.WallNow") == nil {
		t.Error("util.Indirect has no edge to util.WallNow")
	}
}

func TestExternalCallee(t *testing.T) {
	g := buildFixture(t)
	wallNow := g.Node("chant/internal/util.WallNow")
	if wallNow == nil {
		t.Fatal("no node for util.WallNow")
	}
	timeNow := edgeTo(wallNow, "time.Now")
	if timeNow == nil {
		t.Fatalf("util.WallNow has no edge to time.Now; edges: %v", edgeIDs(wallNow))
	}
	if timeNow.Callee.Decl != nil {
		t.Error("stdlib callee must be an external node (no declaration)")
	}
}

func TestInterfaceResolution(t *testing.T) {
	g := buildFixture(t)
	drive := g.Node("chant/internal/sim/kernel.Drive")
	if drive == nil {
		t.Fatal("no node for kernel.Drive")
	}
	for _, impl := range []string{"chant/internal/realnet.TCP.Send", "chant/internal/realnet.Quiet.Send"} {
		e := edgeTo(drive, impl)
		if e == nil {
			t.Errorf("interface call did not resolve to %s; edges: %v", impl, edgeIDs(drive))
			continue
		}
		if !e.Interface {
			t.Errorf("edge to %s not marked as interface-resolved", impl)
		}
	}
	// The static method call in DriveQuiet must NOT be an interface edge.
	quiet := g.Node("chant/internal/sim/kernel.DriveQuiet")
	if e := edgeTo(quiet, "chant/internal/realnet.Quiet.Send"); e == nil || e.Interface {
		t.Error("static method call missing or wrongly marked as interface dispatch")
	}
}

func TestPackageNodesSourceOrder(t *testing.T) {
	g := buildFixture(t)
	nodes := g.PackageNodes("chant/internal/util")
	if len(nodes) != 4 {
		t.Fatalf("util declares 4 functions, got %d", len(nodes))
	}
	want := []string{"WallNow", "Indirect", "Clean", "Sanctioned"}
	for i, n := range nodes {
		if id := "chant/internal/util." + want[i]; n.ID != id {
			t.Errorf("PackageNodes[%d] = %s, want %s (source order)", i, n.ID, id)
		}
	}
}

func edgeIDs(n *callgraph.Node) []string {
	var out []string
	for _, e := range n.Edges {
		out = append(out, e.Callee.ID)
	}
	return out
}
