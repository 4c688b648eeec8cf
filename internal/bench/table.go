package bench

import (
	"fmt"
	"io"
	"strings"
)

// Paper reference values (Tables 1/3 of the paper), used for side-by-side
// reporting in the harness output and EXPERIMENTS.md.
//
// Units: throughput columns in MB/s (kop/s for TokuBench), latency columns
// in seconds.
var PaperMicro = map[string]MicroResults{
	"ext4":        {System: "ext4", SeqRead: 534, SeqWrite: 316, Rand4K: 16, Rand4B: 0.026, TokuBench: 13.6, Grep: 10.15, Rm: 1.81, Find: 0.86},
	"btrfs":       {System: "btrfs", SeqRead: 568, SeqWrite: 328, Rand4K: 13, Rand4B: 0.024, TokuBench: 6.0, Grep: 4.61, Rm: 2.53, Find: 0.78},
	"xfs":         {System: "xfs", SeqRead: 531, SeqWrite: 315, Rand4K: 19, Rand4B: 0.027, TokuBench: 4.5, Grep: 6.09, Rm: 2.74, Find: 0.84},
	"f2fs":        {System: "f2fs", SeqRead: 528, SeqWrite: 320, Rand4K: 16, Rand4B: 0.033, TokuBench: 4.7, Grep: 4.72, Rm: 2.36, Find: 0.83},
	"zfs":         {System: "zfs", SeqRead: 551, SeqWrite: 304, Rand4K: 8, Rand4B: 0.008, TokuBench: 12.5, Grep: 1.25, Rm: 3.31, Find: 0.43},
	"betrfs-v0.4": {System: "betrfs-v0.4", SeqRead: 181, SeqWrite: 55, Rand4K: 92, Rand4B: 0.269, TokuBench: 4.0, Grep: 2.46, Rm: 51.41, Find: 0.27},
	"betrfs+SFL":  {System: "betrfs+SFL", SeqRead: 462, SeqWrite: 222, Rand4K: 96, Rand4B: 0.262, TokuBench: 5.4, Grep: 1.44, Rm: 44.71, Find: 0.19},
	"betrfs+RG":   {System: "betrfs+RG", SeqRead: 462, SeqWrite: 226, Rand4K: 97, Rand4B: 0.274, TokuBench: 5.3, Grep: 1.44, Rm: 5.02, Find: 0.21},
	"betrfs+MLC":  {System: "betrfs+MLC", SeqRead: 463, SeqWrite: 226, Rand4K: 115, Rand4B: 0.352, TokuBench: 8.3, Grep: 1.44, Rm: 4.21, Find: 0.24},
	"betrfs+PGSH": {System: "betrfs+PGSH", SeqRead: 497, SeqWrite: 310, Rand4K: 118, Rand4B: 0.360, TokuBench: 7.7, Grep: 1.46, Rm: 3.41, Find: 0.20},
	"betrfs+DC":   {System: "betrfs+DC", SeqRead: 496, SeqWrite: 312, Rand4K: 116, Rand4B: 0.358, TokuBench: 7.8, Grep: 1.33, Rm: 2.30, Find: 0.20},
	"betrfs+CL":   {System: "betrfs+CL", SeqRead: 497, SeqWrite: 306, Rand4K: 118, Rand4B: 0.364, TokuBench: 11.7, Grep: 1.42, Rm: 2.56, Find: 0.22},
	"betrfs+QRY":  {System: "betrfs+QRY", SeqRead: 497, SeqWrite: 310, Rand4K: 116, Rand4B: 0.363, TokuBench: 11.8, Grep: 1.36, Rm: 1.57, Find: 0.22},
	"betrfs-v0.6": {System: "betrfs-v0.6", SeqRead: 497, SeqWrite: 310, Rand4K: 116, Rand4B: 0.363, TokuBench: 11.8, Grep: 1.36, Rm: 1.57, Find: 0.22},
}

// column is one benchmark column over rows of type R, shared by a text
// table and its JSON document.
type column[R any] struct {
	Name  string
	Unit  string
	Lower bool // lower is better
	Get   func(R) float64
}

// microColumns are the Table 1/3 columns.
var microColumns = []column[MicroResults]{
	{"seq_read", "MB/s", false, func(r MicroResults) float64 { return r.SeqRead }},
	{"seq_write", "MB/s", false, func(r MicroResults) float64 { return r.SeqWrite }},
	{"rand_4K", "MB/s", false, func(r MicroResults) float64 { return r.Rand4K }},
	{"rand_4B", "MB/s", false, func(r MicroResults) float64 { return r.Rand4B }},
	{"tokubench", "kop/s", false, func(r MicroResults) float64 { return r.TokuBench }},
	{"grep", "s", true, func(r MicroResults) float64 { return r.Grep }},
	{"rm", "s", true, func(r MicroResults) float64 { return r.Rm }},
	{"find", "s", true, func(r MicroResults) float64 { return r.Find }},
}

// Shade classifies a cell by the paper's compleatness rule: "green" within
// 15% of the best value in the column, "red" below 30% of the best (or
// more than 3.33x the best latency), "" otherwise.
func Shade(value, best float64, lowerBetter bool) string {
	if best <= 0 || value <= 0 {
		return ""
	}
	if lowerBetter {
		switch {
		case value <= best*1.15:
			return "green"
		case value > best*3.33:
			return "red"
		}
		return ""
	}
	switch {
	case value >= best*0.85:
		return "green"
	case value < best*0.30:
		return "red"
	}
	return ""
}

// WriteMicroTable renders measured-vs-paper rows for the given systems.
func WriteMicroTable(w io.Writer, rows []MicroResults) {
	fmt.Fprintf(w, "%-14s", "system")
	for _, c := range microColumns {
		fmt.Fprintf(w, " | %18s", fmt.Sprintf("%s (%s)", c.Name, c.Unit))
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w, strings.Repeat("-", 14+len(microColumns)*21))

	// Column bests (measured) for shading.
	best := make([]float64, len(microColumns))
	for i, c := range microColumns {
		for _, r := range rows {
			v := c.Get(r)
			if v <= 0 {
				continue
			}
			if best[i] == 0 || (c.Lower && v < best[i]) || (!c.Lower && v > best[i]) {
				best[i] = v
			}
		}
	}
	for _, r := range rows {
		fmt.Fprintf(w, "%-14s", r.System)
		paper, hasPaper := PaperMicro[r.System]
		for i, c := range microColumns {
			v := c.Get(r)
			mark := ""
			switch Shade(v, best[i], c.Lower) {
			case "green":
				mark = "+"
			case "red":
				mark = "!"
			}
			cell := fmt.Sprintf("%8.3g%1s", v, mark)
			if hasPaper {
				cell += fmt.Sprintf(" [%7.3g]", c.Get(paper))
			} else {
				cell += strings.Repeat(" ", 10)
			}
			fmt.Fprintf(w, " | %18s", cell)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w, "\nmeasured [paper].  + within 15% of best, ! below 30% of best (the paper's shading rule)")
}

// appColumns are the Figure 2 columns.
var appColumns = []column[AppResults]{
	{"tar", "s", true, func(r AppResults) float64 { return r.Tar }},
	{"untar", "s", true, func(r AppResults) float64 { return r.Untar }},
	{"git_clone", "s", true, func(r AppResults) float64 { return r.GitClone }},
	{"git_diff", "s", true, func(r AppResults) float64 { return r.GitDiff }},
	{"rsync", "MB/s", false, func(r AppResults) float64 { return r.Rsync }},
	{"rsync_ip", "MB/s", false, func(r AppResults) float64 { return r.RsyncInPlace }},
	{"dovecot", "op/s", false, func(r AppResults) float64 { return r.Dovecot }},
	{"oltp", "kop/s", false, func(r AppResults) float64 { return r.OLTP }},
	{"fileserver", "kop/s", false, func(r AppResults) float64 { return r.Fileserver }},
	{"webserver", "kop/s", false, func(r AppResults) float64 { return r.Webserver }},
	{"webproxy", "kop/s", false, func(r AppResults) float64 { return r.Webproxy }},
}

// WriteAppTable renders the Figure 2 results.
func WriteAppTable(w io.Writer, rows []AppResults) {
	fmt.Fprintf(w, "%-14s", "system")
	for _, c := range appColumns {
		fmt.Fprintf(w, " | %12s", fmt.Sprintf("%s(%s)", c.Name, c.Unit))
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w, strings.Repeat("-", 14+len(appColumns)*15))
	for _, r := range rows {
		fmt.Fprintf(w, "%-14s", r.System)
		for _, c := range appColumns {
			fmt.Fprintf(w, " | %12.4g", c.Get(r))
		}
		fmt.Fprintln(w)
	}
}
