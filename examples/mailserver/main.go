// mailserver: the paper's Dovecot-style workload (Figure 2d) run on two
// file systems side by side — BetrFS v0.6 and ext4 — showing how the
// write-optimized design handles an fsync-heavy small-file server.
package main

import (
	"fmt"

	"betrfs/internal/bench"
	"betrfs/internal/workload"
)

func main() {
	const scale = 64
	for _, system := range []string{"ext4", "betrfs-v0.6"} {
		in := bench.Build(system, scale)
		r := workload.MailServer(in.Env, in.Mount, 10, 300, 10_000)
		fmt.Printf("%-12s: %8.0f op/s over %d mail operations (%.2fs simulated)\n",
			system, r.KOpsPerSec()*1000, r.Ops, r.Seconds())
		reg := in.Env.Metrics
		fmt.Printf("              fsyncs=%d pagesWritten=%d devWrites=%d\n",
			reg.Counter("vfs.fsync.count").Load(), reg.Counter("vfs.page.write").Load(), in.Dev.Stats().Writes)
	}
}
