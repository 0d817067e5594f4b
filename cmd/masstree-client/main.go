// Command masstree-client is a command-line client for masstree-server.
//
// Usage:
//
//	masstree-client -addr host:7500 get KEY [COL...]
//	masstree-client -addr host:7500 put KEY VALUE
//	masstree-client -addr host:7500 putcol KEY COL VALUE [COL VALUE...]
//	masstree-client -addr host:7500 cas KEY EXPECTVER VALUE
//	masstree-client -addr host:7500 putttl KEY VALUE TTL_SECONDS
//	masstree-client -addr host:7500 touch KEY TTL_SECONDS
//	masstree-client -addr host:7500 getorload KEY [COL...]
//	masstree-client -addr host:7500 del KEY
//	masstree-client -addr host:7500 scan START N
//
// get prints the value's version; cas writes column 0 only if the key's
// current version still equals EXPECTVER (0 = key must be absent), printing
// either the new version or the conflicting current version — the version a
// retry should expect after re-reading. putttl and touch are cache-mode
// (protocol v2) operations: putttl stores a value that expires TTL_SECONDS
// from now, touch resets an existing key's TTL without rewriting it, and
// getorload reads through to the server's -backend tier on a miss.
//
// Passing -addrs with a comma-separated node list switches the client into
// cluster mode: every keyed command routes to the key's consistent-hash
// owner (the same ring the cluster tests pin), stats sums numeric counters
// across all reachable nodes, and scan is refused because a range spans
// shards.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"sort"
	"strconv"
	"strings"

	"repro/internal/client"
	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/wire"
)

func main() {
	var addr = flag.String("addr", "127.0.0.1:7500", "server address")
	var addrs = flag.String("addrs", "", "comma-separated server addresses; with more than one, keys route by consistent hash (cluster mode)")
	var jsonOut = flag.Bool("json", false, "stats: emit one JSON object (all keys, including raw histogram buckets) instead of grouped text")
	flag.Parse()
	args := flag.Args()
	if len(args) < 1 {
		usage()
	}
	if *addrs != "" {
		runCluster(strings.Split(*addrs, ","), args, *jsonOut)
		return
	}
	c, err := client.Dial(*addr)
	if err != nil {
		log.Fatalf("masstree-client: %v", err)
	}
	defer c.Close()

	switch args[0] {
	case "get":
		if len(args) < 2 {
			usage()
		}
		var cols []int
		for _, a := range args[2:] {
			n, err := strconv.Atoi(a)
			if err != nil {
				log.Fatalf("masstree-client: bad column %q", a)
			}
			cols = append(cols, n)
		}
		vals, ver, ok, err := c.GetVer([]byte(args[1]), cols)
		check(err)
		if !ok {
			fmt.Println("(not found)")
			os.Exit(1)
		}
		fmt.Printf("version %d\n", ver)
		for i, v := range vals {
			fmt.Printf("col %d: %q\n", i, v)
		}
	case "put":
		if len(args) != 3 {
			usage()
		}
		ver, err := c.PutSimple([]byte(args[1]), []byte(args[2]))
		check(err)
		fmt.Printf("ok (version %d)\n", ver)
	case "putcol":
		if len(args) < 4 || len(args)%2 != 0 {
			usage()
		}
		var puts []wire.ColData
		for i := 2; i < len(args); i += 2 {
			col, err := strconv.Atoi(args[i])
			if err != nil {
				log.Fatalf("masstree-client: bad column %q", args[i])
			}
			puts = append(puts, wire.ColData{Col: col, Data: []byte(args[i+1])})
		}
		ver, err := c.Put([]byte(args[1]), puts)
		check(err)
		fmt.Printf("ok (version %d)\n", ver)
	case "cas":
		if len(args) != 4 {
			usage()
		}
		expect, err := strconv.ParseUint(args[2], 10, 64)
		if err != nil {
			log.Fatalf("masstree-client: bad expected version %q", args[2])
		}
		ver, ok, err := c.CasPut([]byte(args[1]), expect,
			[]wire.ColData{{Col: 0, Data: []byte(args[3])}})
		check(err)
		if !ok {
			fmt.Printf("conflict (current version %d)\n", ver)
			os.Exit(1)
		}
		fmt.Printf("ok (version %d)\n", ver)
	case "putttl":
		if len(args) != 4 {
			usage()
		}
		ttl := parseTTL(args[3])
		conn := dialV2(*addr)
		defer conn.Close()
		ver, err := conn.PutSimpleTTL([]byte(args[1]), []byte(args[2]), ttl)
		check(err)
		fmt.Printf("ok (version %d, ttl %ds)\n", ver, ttl)
	case "touch":
		if len(args) != 3 {
			usage()
		}
		ttl := parseTTL(args[2])
		conn := dialV2(*addr)
		defer conn.Close()
		ver, ok, err := conn.Touch([]byte(args[1]), ttl)
		check(err)
		if !ok {
			fmt.Println("(not found or expired)")
			os.Exit(1)
		}
		fmt.Printf("ok (version %d, ttl %ds)\n", ver, ttl)
	case "getorload":
		if len(args) < 2 {
			usage()
		}
		var cols []int
		for _, a := range args[2:] {
			n, err := strconv.Atoi(a)
			if err != nil {
				log.Fatalf("masstree-client: bad column %q", a)
			}
			cols = append(cols, n)
		}
		conn := dialV2(*addr)
		defer conn.Close()
		vals, ver, stale, ok, err := conn.GetOrLoad([]byte(args[1]), cols)
		check(err)
		if !ok {
			fmt.Println("(not found)")
			os.Exit(1)
		}
		if stale {
			fmt.Printf("version %d (STALE: backend unreachable, value past its TTL)\n", ver)
		} else {
			fmt.Printf("version %d\n", ver)
		}
		for i, v := range vals {
			fmt.Printf("col %d: %q\n", i, v)
		}
	case "del":
		if len(args) != 2 {
			usage()
		}
		existed, err := c.Remove([]byte(args[1]))
		check(err)
		fmt.Println("removed:", existed)
	case "scan":
		if len(args) != 3 {
			usage()
		}
		n, err := strconv.Atoi(args[2])
		check(err)
		pairs, err := c.GetRange([]byte(args[1]), n, nil)
		check(err)
		for _, p := range pairs {
			fmt.Printf("%q: %q\n", p.Key, p.Cols)
		}
	case "stats":
		// Dial v2: flush_last_error (the one string-valued stat) is only
		// served on v2 connections, where clients are known to handle it.
		conn := dialV2(*addr)
		defer conn.Close()
		stats, err := conn.StatsRaw()
		check(err)
		printStats(stats, *jsonOut)
	default:
		usage()
	}
}

// runCluster serves the key-routed subset of commands over a cluster.Cluster:
// each key is served by its consistent-hash owner, and stats aggregates
// numeric counters across every reachable node. scan is refused — a range
// query spans shards and the cluster layer does not merge ranges.
func runCluster(addrs []string, args []string, jsonOut bool) {
	cl, err := cluster.New(cluster.Config{Addrs: addrs})
	if err != nil {
		log.Fatalf("masstree-client: %v", err)
	}
	defer cl.Close()

	parseCols := func(raw []string) []int {
		var cols []int
		for _, a := range raw {
			n, err := strconv.Atoi(a)
			if err != nil {
				log.Fatalf("masstree-client: bad column %q", a)
			}
			cols = append(cols, n)
		}
		return cols
	}

	switch args[0] {
	case "get":
		if len(args) < 2 {
			usage()
		}
		vals, ver, ok, err := cl.Get([]byte(args[1]), parseCols(args[2:]))
		check(err)
		if !ok {
			fmt.Println("(not found)")
			os.Exit(1)
		}
		fmt.Printf("version %d (node %d)\n", ver, cl.Owner([]byte(args[1])))
		for i, v := range vals {
			fmt.Printf("col %d: %q\n", i, v)
		}
	case "put":
		if len(args) != 3 {
			usage()
		}
		ver, err := cl.PutSimple([]byte(args[1]), []byte(args[2]))
		check(err)
		fmt.Printf("ok (version %d, node %d)\n", ver, cl.Owner([]byte(args[1])))
	case "putcol":
		if len(args) < 4 || len(args)%2 != 0 {
			usage()
		}
		var puts []wire.ColData
		for i := 2; i < len(args); i += 2 {
			col, err := strconv.Atoi(args[i])
			if err != nil {
				log.Fatalf("masstree-client: bad column %q", args[i])
			}
			puts = append(puts, wire.ColData{Col: col, Data: []byte(args[i+1])})
		}
		ver, err := cl.Put([]byte(args[1]), puts)
		check(err)
		fmt.Printf("ok (version %d, node %d)\n", ver, cl.Owner([]byte(args[1])))
	case "cas":
		if len(args) != 4 {
			usage()
		}
		expect, err := strconv.ParseUint(args[2], 10, 64)
		if err != nil {
			log.Fatalf("masstree-client: bad expected version %q", args[2])
		}
		ver, ok, err := cl.CasPut([]byte(args[1]), expect,
			[]wire.ColData{{Col: 0, Data: []byte(args[3])}})
		check(err)
		if !ok {
			fmt.Printf("conflict (current version %d)\n", ver)
			os.Exit(1)
		}
		fmt.Printf("ok (version %d)\n", ver)
	case "putttl":
		if len(args) != 4 {
			usage()
		}
		ttl := parseTTL(args[3])
		ver, err := cl.PutTTL([]byte(args[1]),
			[]wire.ColData{{Col: 0, Data: []byte(args[2])}}, ttl)
		check(err)
		fmt.Printf("ok (version %d, ttl %ds)\n", ver, ttl)
	case "touch":
		if len(args) != 3 {
			usage()
		}
		ttl := parseTTL(args[2])
		ver, ok, err := cl.Touch([]byte(args[1]), ttl)
		check(err)
		if !ok {
			fmt.Println("(not found or expired)")
			os.Exit(1)
		}
		fmt.Printf("ok (version %d, ttl %ds)\n", ver, ttl)
	case "getorload":
		if len(args) < 2 {
			usage()
		}
		vals, ver, stale, ok, err := cl.GetOrLoad([]byte(args[1]), parseCols(args[2:]))
		check(err)
		if !ok {
			fmt.Println("(not found)")
			os.Exit(1)
		}
		if stale {
			fmt.Printf("version %d (STALE: backend unreachable, value past its TTL)\n", ver)
		} else {
			fmt.Printf("version %d\n", ver)
		}
		for i, v := range vals {
			fmt.Printf("col %d: %q\n", i, v)
		}
	case "del":
		if len(args) != 2 {
			usage()
		}
		existed, err := cl.Remove([]byte(args[1]))
		check(err)
		fmt.Println("removed:", existed)
	case "stats":
		agg, err := cl.StatsAggregate()
		check(err)
		stats := make(map[string]string, len(agg))
		for name, v := range agg {
			stats[name] = strconv.FormatInt(v, 10)
		}
		printStats(stats, jsonOut)
	case "scan":
		log.Fatalf("masstree-client: scan is not supported in cluster mode (a range spans shards); point -addr at one node")
	default:
		usage()
	}
}

// statsGroupOrder fixes the display order of subsystem groups: data-plane
// layers first (tree out through backend), observability-derived latency
// next, cluster health last.
var statsGroupOrder = []string{"tree", "server", "cache", "logging", "backend", "latency", "cluster", "other"}

// statsGroup maps a stat key to its subsystem group. Exact names are
// matched before prefixes: node_deletes is a tree counter even though the
// cluster's node<i>_* keys share its first four bytes.
func statsGroup(name string) string {
	switch name {
	case "keys", "splits", "layer_creations", "layer_collapses", "node_deletes",
		"root_retries", "local_retries", "batch_fallbacks", "slot_reuses":
		return "tree"
	case "batched_gets", "batched_puts", "batched_scans", "errored_requests":
		return "server"
	case "bytes_live", "max_bytes", "evictions", "expirations", "ghost_hits", "admit_drops":
		return "cache"
	case "flush_errors", "flush_retries", "flush_buffer_drops", "flush_last_error", "broken_chains", "missing_logs":
		return "logging"
	case "loads", "load_errors", "herd_coalesced", "stale_served", "negative_hits",
		"breaker_state", "breaker_opens", "writebehind_depth", "writebehind_drops":
		return "backend"
	case "nodes_up", "nodes_total", "stats_partial",
		"failovers", "hedges", "hedge_wins", "split_batches":
		return "cluster"
	}
	switch {
	case strings.HasPrefix(name, "lat_"):
		return "latency"
	case strings.HasPrefix(name, "node") && len(name) > 4 && name[4] >= '0' && name[4] <= '9':
		return "cluster" // node<i>_state, node<i>_rpc_*
	}
	return "other"
}

// printStats renders a stats map grouped by subsystem (each group sorted)
// or, with -json, as one JSON object carrying every key — including the
// raw lat_*_b<i> histogram buckets the grouped view elides in favor of the
// quantile summaries. Numeric values are emitted as JSON numbers so the
// output pipes straight into jq arithmetic.
func printStats(stats map[string]string, jsonOut bool) {
	if jsonOut {
		out := make(map[string]any, len(stats))
		for k, v := range stats {
			if n, err := strconv.ParseInt(v, 10, 64); err == nil {
				out[k] = n
			} else {
				out[k] = v
			}
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		check(enc.Encode(out))
		return
	}
	groups := map[string][]string{}
	for name := range stats {
		if obs.IsBucketKey(name) {
			continue // raw buckets: -json and /varz carry full histograms
		}
		g := statsGroup(name)
		groups[g] = append(groups[g], name)
	}
	first := true
	for _, g := range statsGroupOrder {
		names := groups[g]
		if len(names) == 0 {
			continue
		}
		sort.Strings(names)
		if !first {
			fmt.Println()
		}
		first = false
		fmt.Printf("[%s]\n", g)
		for _, name := range names {
			fmt.Printf("  %-22s %s\n", name, stats[name])
		}
	}
}

func parseTTL(s string) uint32 {
	n, err := strconv.ParseUint(s, 10, 32)
	if err != nil {
		log.Fatalf("masstree-client: bad ttl %q", s)
	}
	return uint32(n)
}

func dialV2(addr string) *client.Conn {
	conn, err := client.DialConn(addr)
	if err != nil {
		log.Fatalf("masstree-client: %v", err)
	}
	return conn
}

func check(err error) {
	if err != nil {
		log.Fatalf("masstree-client: %v", err)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: masstree-client [-addr host:port | -addrs a:7500,b:7500,...] [-json] COMMAND
  With -addrs, keys route to their consistent-hash owner across the listed
  nodes (cluster mode): get/put/putcol/cas/putttl/touch/getorload/del go to
  the key's owner, stats aggregates numeric counters across all reachable
  nodes, and scan is refused (ranges span shards).

  get KEY [COL...]             read a key (prints its version and columns)
  put KEY VALUE                write column 0
  putcol KEY COL VALUE [...]   write specific columns atomically
  cas KEY EXPECTVER VALUE      conditional write: applies only if the key's
                               version is still EXPECTVER (0 = absent)
  putttl KEY VALUE TTL         write column 0 expiring TTL seconds from now
  touch KEY TTL                reset a key's TTL without rewriting its value
  getorload KEY [COL...]       read a key, loading it from the server's
                               backend tier on a miss; a STALE answer means
                               the backend was unreachable and an expired
                               resident value was served instead
  del KEY                      remove a key
  scan START N                 range query: up to N pairs from START
  stats                        server statistics, grouped by subsystem and
                               sorted within each group; -json emits one
                               JSON object instead (every key, including
                               raw lat_*_b<i> histogram buckets).
                               Tree/batching counters, latency quantiles
                               (lat_<op>_p50/p90/p99/p999, nanoseconds),
                               cache mode (bytes_live, evictions, ...),
                               logging health (flush_errors, flush_retries,
                               flush_buffer_drops, flush_last_error), and
                               the backend tier:
                                 loads             values loaded from the backend
                                 load_errors       backend loads that failed
                                 herd_coalesced    misses that joined a key's
                                                   in-flight load
                                 stale_served      stale-if-error responses
                                 negative_hits     misses answered by the
                                                   negative cache
                                 breaker_state     0 closed / 1 open / 2 half-open
                                 breaker_opens     times the breaker tripped
                                 writebehind_depth queued spilled values
                                 writebehind_drops spills dropped (queue full)`)
	os.Exit(2)
}
