// Fault-tolerance example: exercises the functional data path end to end —
// write real bytes through the RBD mapping and the rados client, object
// extent by object extent, into an erasure-coded pool,
// fail two OSDs holding data shards, and read everything back intact via
// Reed-Solomon reconstruction. Also shows CRUSH remapping a replicated
// pool's placements around a failed device.
package main

import (
	"bytes"
	"fmt"
	"log"

	"repro/internal/crush"
	"repro/internal/netsim"
	"repro/internal/rados"
	"repro/internal/rbd"
	"repro/internal/sim"
)

func main() {
	eng := sim.NewEngine()
	fabric := netsim.NewFabric(eng, 2*sim.Microsecond)
	cfg := rados.DefaultClusterConfig() // 2 nodes x 16 OSDs, MemStore
	cluster, err := rados.NewCluster(eng, fabric, cfg)
	if err != nil {
		log.Fatal(err)
	}
	client, err := rados.NewClient(cluster, "client", 10e9, netsim.SoftwareStack)
	if err != nil {
		log.Fatal(err)
	}
	ecPool, err := cluster.CreateECPool("ec42", 4, 2, 128)
	if err != nil {
		log.Fatal(err)
	}
	replPool, err := cluster.CreateReplicatedPool("r2", 2, 128)
	if err != nil {
		log.Fatal(err)
	}
	img, err := rbd.NewImage("vol", 64<<20, 4<<20, ecPool)
	if err != nil {
		log.Fatal(err)
	}

	const chunk = 16 * 1024
	payloads := make([][]byte, 8)
	for i := range payloads {
		payloads[i] = make([]byte, chunk)
		for j := range payloads[i] {
			payloads[i][j] = byte(i*31 + j)
		}
	}

	eng.Spawn("demo", func(p *sim.Proc) {
		fmt.Println("writing 8 x 16 kB extents into the EC(4+2) image...")
		for i, data := range payloads {
			if err := writeAt(p, client, img, int64(i)*chunk, data); err != nil {
				log.Fatalf("write %d: %v", i, err)
			}
		}

		// Fail two OSDs that hold shards of extent 0.
		acting, err := cluster.ActingSet(ecPool, cluster.PGOf(ecPool, img.ObjectName(0)))
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("extent 0 shard placement (k=4, m=2): OSDs %v\n", acting)
		cluster.OSDs[acting[0]].SetUp(false)
		cluster.OSDs[acting[1]].SetUp(false)
		fmt.Printf("failed osd.%d and osd.%d (two data shards lost)\n", acting[0], acting[1])

		fmt.Println("reading everything back (degraded, reconstructing)...")
		for i, want := range payloads {
			got, err := readAt(p, client, img, int64(i)*chunk, chunk)
			if err != nil {
				log.Fatalf("degraded read %d: %v", i, err)
			}
			if !bytes.Equal(got, want) {
				log.Fatalf("extent %d corrupted after reconstruction", i)
			}
		}
		fmt.Println("all extents intact: Reed-Solomon reconstruction verified ✔")

		// CRUSH remapping demo on the replicated pool.
		reweight := make([]uint32, cluster.Map.MaxDevices())
		for i := range reweight {
			reweight[i] = crush.WeightOne
		}
		const failed = 5
		reweight[failed] = 0
		moved := 0
		const samples = 2000
		for x := uint32(0); x < samples; x++ {
			before, _ := cluster.Map.Select(cluster.Map.Rule("replicated_osd"), x, replPool.Size, nil)
			after, _ := cluster.Map.Select(cluster.Map.Rule("replicated_osd"), x, replPool.Size, reweight)
			if !equalSets(before, after) {
				moved++
			}
		}
		fmt.Printf("CRUSH: marking osd.%d out remaps %.1f%% of placements (ideal ≈ %.1f%%)\n",
			failed, 100*float64(moved)/samples, 100*float64(replPool.Size)/32)
	})
	eng.Run()
	fmt.Printf("simulation finished at t=%v\n", eng.Now())
}

// writeAt stores data at a virtual offset of the image, one rados write
// per backing-object extent.
func writeAt(p *sim.Proc, client *rados.Client, img *rbd.Image, off int64, data []byte) error {
	exts, err := img.Extents(nil, off, len(data))
	if err != nil {
		return err
	}
	for _, e := range exts {
		if err := client.Write(p, img.Pool, e.Object, e.Off, data[:e.Len]); err != nil {
			return err
		}
		data = data[e.Len:]
	}
	return nil
}

// readAt returns n bytes at a virtual offset of the image, one rados read
// per backing-object extent.
func readAt(p *sim.Proc, client *rados.Client, img *rbd.Image, off int64, n int) ([]byte, error) {
	exts, err := img.Extents(nil, off, n)
	if err != nil {
		return nil, err
	}
	out := make([]byte, 0, n)
	for _, e := range exts {
		b, err := client.Read(p, img.Pool, e.Object, e.Off, e.Len)
		if err != nil {
			return nil, err
		}
		out = append(out, b...)
	}
	return out, nil
}

func equalSets(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	m := map[int]int{}
	for _, v := range a {
		m[v]++
	}
	for _, v := range b {
		m[v]--
	}
	for _, c := range m {
		if c != 0 {
			return false
		}
	}
	return true
}
