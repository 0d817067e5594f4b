// URL index: the paper's motivating Bigtable-style workload (§1) — web-page
// metadata stored under permuted URL keys like
// "edu.harvard.seas.www/news-events", which group a domain's pages together
// so range queries can traverse one site. Such keys have long shared
// prefixes, the case Masstree's trie-of-trees design targets.
//
//	go run ./examples/urlindex
package main

import (
	"fmt"
	"log"
	"strings"

	"repro/internal/kvstore"
	"repro/internal/value"
)

// permute converts host/path into a permuted-host key: reversed host labels
// grouped before the path, exactly like Bigtable's row keys.
func permute(url string) string {
	host, path, _ := strings.Cut(url, "/")
	labels := strings.Split(host, ".")
	for i, j := 0, len(labels)-1; i < j; i, j = i+1, j-1 {
		labels[i], labels[j] = labels[j], labels[i]
	}
	return strings.Join(labels, ".") + "/" + path
}

func main() {
	store, err := kvstore.Open(kvstore.Config{})
	if err != nil {
		log.Fatal(err)
	}
	defer store.Close()
	sess := store.Session(0)
	defer sess.Close()

	pages := map[string][2]string{ // url -> (title, content-type)
		"www.seas.harvard.edu/news-events":   {"News & Events", "text/html"},
		"www.seas.harvard.edu/academics":     {"Academics", "text/html"},
		"www.seas.harvard.edu/about":         {"About SEAS", "text/html"},
		"www.harvard.edu/":                   {"Harvard University", "text/html"},
		"api.harvard.edu/v1/courses":         {"Course API", "application/json"},
		"www.mit.edu/":                       {"MIT", "text/html"},
		"csail.mit.edu/research":             {"CSAIL Research", "text/html"},
		"pdos.csail.mit.edu/papers/masstree": {"Masstree paper", "application/pdf"},
		"pdos.csail.mit.edu/papers/silo":     {"Silo paper", "application/pdf"},
	}
	for url, meta := range pages {
		sess.Put([]byte(permute(url)), []value.ColPut{
			{Col: 0, Data: []byte(meta[0])},
			{Col: 1, Data: []byte(meta[1])},
			{Col: 2, Data: []byte(url)},
		})
	}

	// Range query: everything under *.harvard.edu, in key order. The shared
	// "edu.harvard." prefix means these keys co-locate in the trie.
	fmt.Println("pages under edu.harvard.*:")
	var rs kvstore.RangeScratch
	for _, p := range sess.GetRangeInto([]byte("edu.harvard."), 100, []int{0, 2}, &rs) {
		if !strings.HasPrefix(string(p.Key), "edu.harvard.") {
			break
		}
		fmt.Printf("  %-40s %s\n", p.Key, p.Cols[0])
	}

	// Narrower range: one host's pages.
	fmt.Println("pages under edu.mit.csail.pdos (papers site):")
	rs.Reset()
	for _, p := range sess.GetRangeInto([]byte("edu.mit.csail.pdos/"), 100, []int{0}, &rs) {
		if !strings.HasPrefix(string(p.Key), "edu.mit.csail.pdos/") {
			break
		}
		fmt.Printf("  %-40s %s\n", p.Key, p.Cols[0])
	}

	// Point lookup by original URL.
	k := permute("pdos.csail.mit.edu/papers/masstree")
	v, _ := sess.GetValue([]byte(k))
	fmt.Printf("lookup %q -> title=%q type=%q\n", k, v.Col(0), v.Col(1))

	fmt.Printf("tree stats: %+v\n", store.Stats())
}
