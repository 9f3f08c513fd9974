//go:build !amd64

package raytrace

// Off amd64 bvh.Packets is false, so no frame reaches these kernels.

func raygen4(*raygenFrame, *PixelXY, *float64, *float64, *float64, int, int) {
	panic("raytrace: no raygen kernel on this GOARCH")
}

func shade4(*shadeFrame, *shadeQuad) int { panic("raytrace: no shade kernel on this GOARCH") }

func pow4(*lanes, *lanes) int { panic("raytrace: no shade kernel on this GOARCH") }
