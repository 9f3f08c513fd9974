package strawman

import (
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"testing"
	"time"

	"insitu/internal/comm"
	"insitu/internal/conduit"
	"insitu/internal/framebuffer"
	"insitu/internal/sim"
)

// basicActions builds the canonical add_plot / draw_plots / save_image
// sequence from the paper's integration listing.
func basicActions(variable, renderer, file string, wh int) *conduit.Node {
	actions := conduit.NewNode()
	add := actions.Append()
	add.Set("action", "add_plot")
	add.Set("var", variable)
	add.Set("renderer", renderer)
	draw := actions.Append()
	draw.Set("action", "draw_plots")
	save := actions.Append()
	save.Set("action", "save_image")
	save.Set("fileName", file)
	save.Set("width", wh)
	save.Set("height", wh)
	return actions
}

func TestSerialEndToEndAllProxiesAllRenderers(t *testing.T) {
	dir := t.TempDir()
	for _, proxy := range sim.Names() {
		s, err := sim.New(proxy, 10, 1, 0)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 2; i++ {
			s.Step()
		}
		data := conduit.NewNode()
		s.Publish(data)
		for _, renderer := range []string{"raytracer", "rasterizer", "volume"} {
			opts := conduit.NewNode()
			opts.Set("device", "cpu")
			sm, err := Open(opts)
			if err != nil {
				t.Fatal(err)
			}
			if err := sm.Publish(data); err != nil {
				t.Fatal(err)
			}
			file := filepath.Join(dir, fmt.Sprintf("%s_%s", proxy, renderer))
			if err := sm.Execute(basicActions(s.PrimaryField(), renderer, file, 64)); err != nil {
				t.Fatalf("%s/%s: %v", proxy, renderer, err)
			}
			img := sm.LastImages[file]
			if img == nil {
				t.Fatalf("%s/%s: no image", proxy, renderer)
			}
			if img.ActivePixels() == 0 {
				t.Errorf("%s/%s: empty image", proxy, renderer)
			}
			if fi, err := os.Stat(file + ".png"); err != nil || fi.Size() == 0 {
				t.Errorf("%s/%s: png missing: %v", proxy, renderer, err)
			}
			if sm.LastVisTime <= 0 {
				t.Errorf("%s/%s: no vis time", proxy, renderer)
			}
			if err := sm.Close(); err != nil {
				t.Error(err)
			}
		}
	}
}

func TestParallelInSitu(t *testing.T) {
	dir := t.TempDir()
	const tasks = 4
	w := comm.NewWorld(tasks)
	imgs, err := comm.RunCollect(w, func(c *comm.Comm) (*framebuffer.Image, error) {
		s, err := sim.New("kripke", 10, tasks, c.Rank())
		if err != nil {
			return nil, err
		}
		s.Step()
		data := conduit.NewNode()
		s.Publish(data)
		opts := conduit.NewNode()
		opts.Set("device", "cpu")
		opts.SetExternal("mpi_comm", c)
		sm, err := Open(opts)
		if err != nil {
			return nil, err
		}
		if err := sm.Publish(data); err != nil {
			return nil, err
		}
		file := filepath.Join(dir, fmt.Sprintf("parallel_rank%d", c.Rank()))
		if err := sm.Execute(basicActions("phi", "raytracer", file, 64)); err != nil {
			return nil, err
		}
		return sm.LastImages[file], sm.Close()
	})
	if err != nil {
		t.Fatal(err)
	}
	if imgs[0] == nil || imgs[0].ActivePixels() == 0 {
		t.Error("rank 0 should hold the composited image")
	}
	for r := 1; r < tasks; r++ {
		if imgs[r] != nil {
			t.Errorf("rank %d should not hold an image", r)
		}
	}
}

func TestParallelVolumeBlend(t *testing.T) {
	dir := t.TempDir()
	const tasks = 4
	w := comm.NewWorld(tasks)
	imgs, err := comm.RunCollect(w, func(c *comm.Comm) (*framebuffer.Image, error) {
		s, err := sim.New("cloverleaf", 10, tasks, c.Rank())
		if err != nil {
			return nil, err
		}
		s.Step()
		data := conduit.NewNode()
		s.Publish(data)
		opts := conduit.NewNode()
		opts.SetExternal("mpi_comm", c)
		sm, err := Open(opts)
		if err != nil {
			return nil, err
		}
		if err := sm.Publish(data); err != nil {
			return nil, err
		}
		file := filepath.Join(dir, fmt.Sprintf("vol_rank%d", c.Rank()))
		if err := sm.Execute(basicActions("energy", "volume", file, 48)); err != nil {
			return nil, err
		}
		return sm.LastImages[file], sm.Close()
	})
	if err != nil {
		t.Fatal(err)
	}
	if imgs[0] == nil || imgs[0].ActivePixels() == 0 {
		t.Error("composited volume image empty")
	}
}

func TestErrorsSurfaced(t *testing.T) {
	opts := conduit.NewNode()
	sm, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	// Execute before publish.
	if err := sm.Execute(basicActions("x", "raytracer", "nope", 16)); err == nil {
		t.Error("expected Execute-before-Publish error")
	}
	// Unknown device profile.
	bad := conduit.NewNode()
	bad.Set("device", "vax")
	if _, err := Open(bad); err == nil {
		t.Error("expected unknown-device error")
	}
	// Unknown field.
	s, err := sim.New("kripke", 8, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	data := conduit.NewNode()
	s.Publish(data)
	if err := sm.Publish(data); err != nil {
		t.Fatal(err)
	}
	if err := sm.Execute(basicActions("nosuchfield", "raytracer", "nope", 16)); err == nil {
		t.Error("expected unknown-field error")
	}
	// Unknown renderer.
	if err := sm.Execute(basicActions("phi", "crayon", "nope", 16)); err == nil {
		t.Error("expected unknown-renderer error")
	}
	// Malformed action list.
	broken := conduit.NewNode()
	broken.Append().Set("whoops", 1)
	if err := sm.Execute(broken); err == nil {
		t.Error("expected malformed-action error")
	}
	// save_image with no plots.
	nude := conduit.NewNode()
	saveOnly := nude.Append()
	saveOnly.Set("action", "save_image")
	saveOnly.Set("fileName", "x")
	if err := sm.Execute(nude); err == nil {
		t.Error("expected no-plots error")
	}
}

// TestRankLocalFailureAgreed: when only one task's block lacks the
// plotted field, every task's Execute fails together — the failure is
// agreed across the world before any task enters a collective its peers
// would skip, so no task is left blocked.
func TestRankLocalFailureAgreed(t *testing.T) {
	const tasks = 3
	file := filepath.Join(t.TempDir(), "x")
	done := make(chan []error, 1)
	go func() {
		errs := make([]error, tasks)
		err := comm.NewWorld(tasks).Run(func(c *comm.Comm) error {
			// Rank 1 publishes a cloverleaf block, which has no phi field.
			proxy := "kripke"
			if c.Rank() == 1 {
				proxy = "cloverleaf"
			}
			s, err := sim.New(proxy, 8, tasks, c.Rank())
			if err != nil {
				return err
			}
			s.Step()
			data := conduit.NewNode()
			s.Publish(data)
			opts := conduit.NewNode()
			opts.Set("device", "serial")
			opts.SetExternal("mpi_comm", c)
			sm, err := Open(opts)
			if err != nil {
				return err
			}
			defer sm.Close()
			if err := sm.Publish(data); err != nil {
				return err
			}
			errs[c.Rank()] = sm.Execute(basicActions("phi", "raytracer", file, 16))
			return nil
		})
		if err != nil {
			t.Error(err)
		}
		done <- errs
	}()
	select {
	case errs := <-done:
		for r, err := range errs {
			if err == nil {
				t.Errorf("rank %d: Execute succeeded although rank 1 cannot plot phi", r)
			}
		}
	case <-time.After(2 * time.Minute):
		t.Fatal("a rank-local failure left the world blocked in a collective")
	}
}

func TestElementFieldConversion(t *testing.T) {
	// The lulesh proxy publishes an element-centered energy field; plots of
	// it must work via element-to-vertex averaging.
	dir := t.TempDir()
	s, err := sim.New("lulesh", 8, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	s.Step()
	data := conduit.NewNode()
	s.Publish(data)
	sm, err := Open(nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := sm.Publish(data); err != nil {
		t.Fatal(err)
	}
	file := filepath.Join(dir, "lulesh_e")
	if err := sm.Execute(basicActions("e", "raytracer", file, 48)); err != nil {
		t.Fatal(err)
	}
	if sm.LastImages[file].ActivePixels() == 0 {
		t.Error("element-field plot is empty")
	}
}

func TestWebStreaming(t *testing.T) {
	s, err := sim.New("kripke", 8, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	s.Step()
	data := conduit.NewNode()
	s.Publish(data)

	srv, err := StartImageServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// Before any image: 404.
	resp, err := http.Get("http://" + srv.Addr() + "/image.png")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("pre-image status = %d", resp.StatusCode)
	}

	img := framebuffer.NewImage(8, 8)
	img.Set(1, 1, 1, 0, 0, 1, 1)
	srv.Update(img)

	resp, err = http.Get("http://" + srv.Addr() + "/image.png")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || len(body) == 0 {
		t.Errorf("image fetch failed: %d, %d bytes", resp.StatusCode, len(body))
	}
	resp, err = http.Get("http://" + srv.Addr() + "/")
	if err != nil {
		t.Fatal(err)
	}
	page, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if len(page) == 0 {
		t.Error("index page empty")
	}
}

func TestMultiplePlotsOneExecute(t *testing.T) {
	dir := t.TempDir()
	s, err := sim.New("kripke", 8, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	s.Step()
	data := conduit.NewNode()
	s.Publish(data)
	sm, err := Open(nil)
	if err != nil {
		t.Fatal(err)
	}
	defer sm.Close()
	if err := sm.Publish(data); err != nil {
		t.Fatal(err)
	}
	// Two plots (the flux and the cross-section) saved from one action
	// list; both variables render into the same save target sequence.
	actions := conduit.NewNode()
	for _, v := range []string{"phi", "sigma"} {
		add := actions.Append()
		add.Set("action", "add_plot")
		add.Set("var", v)
		add.Set("renderer", "raytracer")
	}
	save := actions.Append()
	save.Set("action", "save_image")
	save.Set("fileName", filepath.Join(dir, "multi"))
	save.Set("width", 48)
	save.Set("height", 48)
	if err := sm.Execute(actions); err != nil {
		t.Fatal(err)
	}
	if sm.LastImages[filepath.Join(dir, "multi")] == nil {
		t.Error("no image produced")
	}
}

func TestCameraOverridesChangeImage(t *testing.T) {
	dir := t.TempDir()
	s, err := sim.New("cloverleaf", 8, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	s.Step()
	data := conduit.NewNode()
	s.Publish(data)
	render := func(azimuth float64) *framebuffer.Image {
		sm, err := Open(nil)
		if err != nil {
			t.Fatal(err)
		}
		defer sm.Close()
		if err := sm.Publish(data); err != nil {
			t.Fatal(err)
		}
		actions := basicActions("energy", "raytracer", filepath.Join(dir, "cam"), 48)
		actions.List()[2].Set("camera/azimuth", azimuth)
		if err := sm.Execute(actions); err != nil {
			t.Fatal(err)
		}
		return sm.LastImages[filepath.Join(dir, "cam")]
	}
	a := render(0)
	b := render(120)
	diff := 0
	for i := range a.Color {
		if a.Color[i] != b.Color[i] {
			diff++
		}
	}
	if diff == 0 {
		t.Error("camera azimuth override had no effect")
	}
}
