// Zoned-storage example: the local-device side of UIFD — a host-managed
// ZNS namespace exposed through the same blk-mq machinery as the FPGA path
// (paper §III-B: UIFD supports "emerging local storage such as ZNS and SMR
// disks"). Demonstrates the zoned-write contract, contract violations
// surfacing as I/O errors, zone append, and zone reset.
package main

import (
	"fmt"
	"log"

	"repro/internal/blockmq"
	"repro/internal/sim"
	"repro/internal/uifd"
	"repro/internal/zoned"
)

func main() {
	eng := sim.NewEngine()
	dev, err := zoned.New(zoned.ZNSConfig(16))
	if err != nil {
		log.Fatal(err)
	}
	drv := uifd.NewZonedDriver(eng, zoned.NewServiceModel(eng, dev))
	mq, err := blockmq.New(eng, blockmq.Config{
		CPUs: 2, HWQueues: 2, TagsPerHW: 16, Bypass: true,
	}, drv)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("ZNS namespace: %d zones x %d MiB (%d GiB), max %d open zones\n",
		dev.Zones(), (64<<20)/(1<<20), dev.Size()>>30, 14)

	// The demo runs as a chain of continuations. Each step waits for the
	// previous one with AwaitFunc, which resumes one event after it
	// completes.
	write := func(off int64, n int) func(done func(error)) {
		return func(done func(error)) {
			mq.SubmitAsync(blockmq.OpWrite, off, n, 0, 0, done)
		}
	}
	var writeNext, appendNext func(i int)
	var violate, reset func()

	// 1. Sequential writes into zone 0 through the block layer.
	writeNext = func(i int) {
		if i == 4 {
			z, _ := dev.Zone(0)
			fmt.Printf("   wrote 4 x 64 kB; zone 0 state=%v wp=%d kB\n", z.State, z.WP/1024)
			violate()
			return
		}
		eng.AwaitFunc(write(int64(i)*65536, 65536), func(err error) {
			if err != nil {
				log.Fatalf("  write %d: %v", i, err)
			}
			writeNext(i + 1)
		})
	}
	// 2. A write that violates the write pointer fails cleanly.
	violate = func() {
		fmt.Println("\n2. write-pointer violation:")
		eng.AwaitFunc(write(1<<20, 4096), func(err error) {
			if err == nil {
				log.Fatal("   contract violation was accepted!")
			}
			fmt.Printf("   rejected as expected: %v\n", err)
			fmt.Println("\n3. zone append into zone 5:")
			appendNext(0)
		})
	}
	// 3. Zone append lets the device pick the offset.
	appendNext = func(i int) {
		if i == 3 {
			reset()
			return
		}
		var off int64
		appendOne := func(done func(error)) {
			drv.Append(5, 16384, func(o int64, err error) {
				off = o
				done(err)
			})
		}
		eng.AwaitFunc(appendOne, func(err error) {
			if err != nil {
				log.Fatalf("  append: %v", err)
			}
			fmt.Printf("   appended 16 kB at offset %d\n", off)
			appendNext(i + 1)
		})
	}
	// 4. Reset and reuse.
	reset = func() {
		fmt.Println("\n4. zone reset:")
		eng.AwaitFunc(func(done func(error)) { drv.ResetZone(0, done) }, func(err error) {
			if err != nil {
				log.Fatal(err)
			}
			eng.AwaitFunc(write(0, 4096), func(err error) {
				if err != nil {
					log.Fatal(err)
				}
				fmt.Println("   zone 0 reset and rewritten from the start ✔")
			})
		})
	}
	eng.Schedule(0, func() {
		fmt.Println("\n1. sequential writes into zone 0:")
		writeNext(0)
	})
	eng.Run()

	reads, writes, errs := drv.Stats()
	w, r, a, resets := dev.Stats()
	fmt.Printf("\ndriver: %d reads, %d writes, %d contract errors\n", reads, writes, errs)
	fmt.Printf("device: %d writes, %d reads, %d appends, %d resets (t=%v)\n",
		w, r, a, resets, eng.Now())
	fmt.Println("\nzone report:")
	for _, rep := range dev.ReportZones()[:6] {
		fmt.Printf("  zone %2d  %-12v state=%-8v wp=%d\n", rep.Index, rep.Type, rep.State, rep.WP)
	}
}
