package scenario

import (
	"time"

	"insitu/internal/core"
	"insitu/internal/device"
	"insitu/internal/framebuffer"
)

// Arenas is one render goroutine's own state: a device per architecture,
// opened on first use, and an arena per architecture and backend on it.
// The scenes the goroutine renders are shared (see SceneCache); what it
// writes is here. The zero value is ready to use; Close releases the
// devices' worker pools. Not safe for concurrent use.
type Arenas struct {
	devs   map[string]*device.Device
	arenas map[arenaKey]Arena
}

type arenaKey struct {
	arch    string
	backend Backend
}

// Device returns the device of profile arch, opening it on first use.
func (w *Arenas) Device(arch string) (*device.Device, error) {
	if dev, ok := w.devs[arch]; ok {
		return dev, nil
	}
	dev, err := device.Profile(arch)
	if err != nil {
		return nil, err
	}
	if w.devs == nil {
		w.devs = map[string]*device.Device{}
	}
	w.devs[arch] = dev
	return dev, nil
}

// Render draws frame f of ps on the arena of ps's backend on the arch
// device, making the arena on first use. The image lives in that arena
// until its next frame.
func (w *Arenas) Render(arch string, ps *PreparedScene, f Frame, in *core.Inputs) (time.Duration, *framebuffer.Image, error) {
	k := arenaKey{arch, ps.Backend}
	a, ok := w.arenas[k]
	if !ok {
		dev, err := w.Device(arch)
		if err != nil {
			return 0, nil, err
		}
		if w.arenas == nil {
			w.arenas = map[arenaKey]Arena{}
		}
		a = ps.Backend.NewArena(dev)
		w.arenas[k] = a
	}
	return a.Render(ps, f, in)
}

// Close releases every device's worker pool. The arenas stay usable:
// their launches run on the calling goroutine alone.
func (w *Arenas) Close() {
	for _, dev := range w.devs {
		dev.Close()
	}
}
