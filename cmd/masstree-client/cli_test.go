package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/kvstore"
	"repro/internal/server"
)

// TestMain lets the test binary double as the client binary: with the
// reexec marker set, it runs main instead of the tests, so the command
// switch runs in a real process and exits the way the CLI does.
func TestMain(m *testing.M) {
	if os.Getenv("MASSTREE_CLIENT_REEXEC") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// startServers brings up n in-memory stores, each behind its own server.
func startServers(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	for i := range addrs {
		store, err := kvstore.Open(kvstore.Config{})
		if err != nil {
			t.Fatal(err)
		}
		srv := server.New(store, 2)
		if err := srv.Listen("127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		addrs[i] = srv.Addr().String()
		t.Cleanup(func() {
			srv.Close()
			store.Close()
		})
	}
	return addrs
}

// cli runs this test binary as masstree-client and returns its stdout and
// exit code. Stderr is not part of the commands' contract and is not read.
func cli(t *testing.T, args ...string) (string, int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "MASSTREE_CLIENT_REEXEC=1")
	var out bytes.Buffer
	cmd.Stdout = &out
	err := cmd.Run()
	if ee, ok := err.(*exec.ExitError); ok {
		return out.String(), ee.ExitCode()
	}
	if err != nil {
		t.Fatal(err)
	}
	return out.String(), 0
}

var versionRE = regexp.MustCompile(`version (\d+)`)

// TestCLICommands runs every command of the client against one node (-addr)
// and against two (-addrs), asserting each command's stdout and exit code.
// The versions printed are read back from the output and then asserted
// where a later command reports them again.
func TestCLICommands(t *testing.T) {
	one := startServers(t, 1)
	two := startServers(t, 2)
	t.Run("addr", func(t *testing.T) {
		cliCommands(t, []string{"-addr", one[0]}, nil)
	})
	t.Run("addrs", func(t *testing.T) {
		ring := cluster.NewRing(two)
		cliCommands(t, []string{"-addrs", strings.Join(two, ",")}, ring)
	})
}

func cliCommands(t *testing.T, target []string, ring *cluster.Ring) {
	// run checks one command's exit code and that its stdout is want, with
	// %d standing for the first version the output reports; it returns that
	// version (0 if the output reports none).
	run := func(code int, want string, args ...string) uint64 {
		t.Helper()
		out, got := cli(t, append(append([]string(nil), target...), args...)...)
		var ver uint64
		if m := versionRE.FindStringSubmatch(out); m != nil {
			ver, _ = strconv.ParseUint(m[1], 10, 64)
		}
		if strings.Contains(want, "%d") {
			want = fmt.Sprintf(want, ver)
		}
		if got != code || out != want {
			t.Fatalf("%q: exit %d, stdout %q; want exit %d, stdout %q", args, got, out, code, want)
		}
		return ver
	}
	// In cluster mode get, put and putcol name the key's owner.
	putNode, getNode := func(string) string { return "" }, func(string) string { return "" }
	if ring != nil {
		putNode = func(k string) string { return fmt.Sprintf(", node %d", ring.Owner([]byte(k))) }
		getNode = func(k string) string { return fmt.Sprintf(" (node %d)", ring.Owner([]byte(k))) }
	}

	v1 := run(0, "ok (version %d"+putNode("k1")+")\n", "put", "k1", "v1")
	v2 := run(0, "ok (version %d"+putNode("k2")+")\n", "putcol", "k2", "0", "a", "1", "b")
	if v1 == 0 || v2 == 0 {
		t.Fatalf("put versions %d, %d", v1, v2)
	}
	run(0, fmt.Sprintf("version %d%s\ncol 0: \"v1\"\n", v1, getNode("k1")), "get", "k1")
	run(0, fmt.Sprintf("version %d%s\ncol 0: \"a\"\ncol 1: \"b\"\n", v2, getNode("k2")), "get", "k2")
	run(0, fmt.Sprintf("version %d%s\ncol 0: \"b\"\n", v2, getNode("k2")), "get", "k2", "1")
	run(1, "(not found)\n", "get", "missing")

	v3 := run(0, "ok (version %d)\n", "cas", "k1", strconv.FormatUint(v1, 10), "v1b")
	if v3 == v1 {
		t.Fatalf("cas kept version %d", v1)
	}
	run(1, fmt.Sprintf("conflict (current version %d)\n", v3), "cas", "k1", strconv.FormatUint(v1, 10), "v1c")
	run(0, fmt.Sprintf("version %d%s\ncol 0: \"v1b\"\n", v3, getNode("k1")), "get", "k1")

	run(0, "ok (version %d, ttl 60s)\n", "putttl", "k3", "v3", "60")
	run(0, "ok (version %d, ttl 120s)\n", "touch", "k3", "120")
	run(1, "(not found or expired)\n", "touch", "missing", "60")

	// A resident key reads through as a get; these servers have no backend
	// tier, so a read-through get of an absent key fails.
	run(0, fmt.Sprintf("version %d\ncol 0: \"v1b\"\n", v3), "getorload", "k1")
	run(1, "", "getorload", "missing")

	run(0, "removed: true\n", "del", "k2")
	run(0, "removed: false\n", "del", "k2")
	run(1, "(not found)\n", "get", "k2")

	if ring == nil {
		run(0, "\"k1\": [\"v1b\"]\n\"k3\": [\"v3\"]\n", "scan", "", "10")
		run(0, "\"k3\": [\"v3\"]\n", "scan", "k2", "10")
	} else {
		// A range spans shards; across two nodes it is refused.
		run(1, "", "scan", "", "10")
	}

	out, code := cli(t, append(append([]string(nil), target...), "stats")...)
	if code != 0 || !strings.HasPrefix(out, "[tree]\n") || !regexp.MustCompile(`(?m)^  keys +2$`).MatchString(out) {
		t.Fatalf("stats: exit %d, stdout:\n%s", code, out)
	}
	out, code = cli(t, append(append([]string(nil), target...), "-json", "stats")...)
	var stats map[string]any
	if code != 0 || json.Unmarshal([]byte(out), &stats) != nil || stats["keys"] != float64(2) {
		t.Fatalf("stats -json: exit %d, stdout:\n%s", code, out)
	}
	if ring != nil && stats["nodes_total"] != float64(2) {
		t.Fatalf("stats -json: nodes_total %v, want 2", stats["nodes_total"])
	}
}
