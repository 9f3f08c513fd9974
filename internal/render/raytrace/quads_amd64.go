package raytrace

// raygen4 writes the directions of 4*quads rays, four per call's
// iteration, to dx, dy and dz: RayGen.Ray for the pixel at xy in every
// lane with each lane's jitter when stride is 4 (one pixel's samples),
// for the four pixels from xy on when it is 16. xy advances by stride
// bytes per iteration.
//
//go:noescape
func raygen4(f *raygenFrame, xy *PixelXY, dx, dy, dz *float64, quads, stride int)

// shade4 computes q's four lanes of shadeRay into q.r, q.g and q.b. It
// returns the lanes, one bit each, whose |n.h|^30 it left to math.Pow:
// those whose base is 0, 1, subnormal, negative or not finite, or whose
// power leaves the normal range. Their colors are undefined.
//
//go:noescape
func shade4(f *shadeFrame, q *shadeQuad) int

// pow4 is shade4's power: out gets x^30 in every lane, as math.Pow
// computes it, but for the returned lanes, which shade4 would leave to
// math.Pow. It is the test hook for the kernel's power lanes.
//
//go:noescape
func pow4(x, out *lanes) int
