// Command mkbetrfs formats a BetrFS file system on a simulated device and
// prints the resulting layout — the simulation's analog of the mkfs step
// in the paper's artifact. It builds the catalogue's stack for the chosen
// version, so v0.4 runs over ext4 through the southbound layer, as its
// Table 3 row does, and v0.6 over the SFL.
package main

import (
	"flag"
	"fmt"
	"os"

	"betrfs/internal/blockdev"
	"betrfs/internal/sim"
	"betrfs/internal/systems"
)

func main() {
	scale := flag.Int64("scale", 64, "device scale divisor (250 GB / scale)")
	version := flag.String("version", "v0.6", "betrfs version preset: v0.4 or v0.6")
	flag.Parse()

	sys, err := systems.Lookup("betrfs-" + *version)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mkbetrfs:", err)
		os.Exit(2)
	}
	env := sim.NewEnv(1)
	dev := blockdev.New(env, sys.Device().Scale(*scale))
	st, err := sys.New(env, dev, systems.Sizes{})
	if err != nil {
		fmt.Println("format failed:", err)
		return
	}
	if err := st.FS.Sync(); err != nil {
		fmt.Println("sync failed:", err)
		return
	}

	fmt.Printf("formatted BetrFS %s on %d MiB simulated SSD\n\n", *version, dev.Size()>>20)
	if st.SFL != nil {
		layout := st.SFL.Layout()
		fmt.Printf("%-12s %14s\n", "region", "size")
		fmt.Printf("%-12s %11d KiB\n", "SuperBlock", layout.SuperBytes>>10)
		fmt.Printf("%-12s %11d KiB\n", "Log", layout.LogBytes>>10)
		fmt.Printf("%-12s %11d KiB\n", "Meta Index", layout.MetaBytes>>10)
		fmt.Printf("%-12s %11d KiB\n", "Data Index", layout.DataBytes>>10)
	} else {
		fmt.Println("southbound: the tree's files live in an ext4 file system on the device")
	}
	cfg := sys.Betr.Tree
	fmt.Printf("\ntree config: node=%d KiB basement=%d KiB fanout=%d cache=%d MiB\n",
		cfg.NodeSize>>10, cfg.BasementSize>>10, cfg.Fanout, cfg.CacheBytes>>20)
	fmt.Printf("format I/O: %d writes, %d KiB\n",
		dev.Stats().Writes, dev.Stats().BytesWritten>>10)
}
