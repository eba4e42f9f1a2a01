//! Four-component float vectors — the GPU's native data type.
//!
//! ATTILA's whole datapath works on 4-component 32-bit floating-point
//! vectors: vertex attributes, fragment attributes, shader registers and
//! filtered texels are all [`Vec4`] values.

use std::fmt;
use std::ops::{Add, Div, Index, IndexMut, Mul, Neg, Sub};

/// A 4-component single-precision vector `(x, y, z, w)`.
///
/// # Examples
///
/// ```
/// use attila_emu::Vec4;
/// let a = Vec4::new(1.0, 2.0, 3.0, 4.0);
/// let b = Vec4::splat(2.0);
/// assert_eq!(a * b, Vec4::new(2.0, 4.0, 6.0, 8.0));
/// assert_eq!(a.dot4(b), 20.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Vec4 {
    /// First component.
    pub x: f32,
    /// Second component.
    pub y: f32,
    /// Third component.
    pub z: f32,
    /// Fourth component.
    pub w: f32,
}

impl Vec4 {
    /// The zero vector `(0, 0, 0, 0)`.
    pub const ZERO: Vec4 = Vec4 { x: 0.0, y: 0.0, z: 0.0, w: 0.0 };
    /// The one vector `(1, 1, 1, 1)`.
    pub const ONE: Vec4 = Vec4 { x: 1.0, y: 1.0, z: 1.0, w: 1.0 };
    /// A point at the origin `(0, 0, 0, 1)`.
    pub const ORIGIN: Vec4 = Vec4 { x: 0.0, y: 0.0, z: 0.0, w: 1.0 };

    /// Builds a vector from its four components.
    pub const fn new(x: f32, y: f32, z: f32, w: f32) -> Self {
        Vec4 { x, y, z, w }
    }

    /// Builds a vector with all components equal to `v`.
    pub const fn splat(v: f32) -> Self {
        Vec4 { x: v, y: v, z: v, w: v }
    }

    /// Builds a position vector `(x, y, z, 1)`.
    pub const fn point(x: f32, y: f32, z: f32) -> Self {
        Vec4 { x, y, z, w: 1.0 }
    }

    /// 3-component dot product (ignores `w`).
    pub fn dot3(self, rhs: Vec4) -> f32 {
        self.x * rhs.x + self.y * rhs.y + self.z * rhs.z
    }

    /// 4-component dot product.
    pub fn dot4(self, rhs: Vec4) -> f32 {
        self.x * rhs.x + self.y * rhs.y + self.z * rhs.z + self.w * rhs.w
    }

    /// Homogeneous dot product: `xyz·xyz + w` (ARB `DPH`).
    pub fn dph(self, rhs: Vec4) -> f32 {
        self.dot3(rhs) + rhs.w
    }

    /// 3-component cross product; `w` of the result is 0.
    pub fn cross3(self, rhs: Vec4) -> Vec4 {
        Vec4::new(
            self.y * rhs.z - self.z * rhs.y,
            self.z * rhs.x - self.x * rhs.z,
            self.x * rhs.y - self.y * rhs.x,
            0.0,
        )
    }

    /// Euclidean length of the `xyz` part.
    pub fn length3(self) -> f32 {
        self.dot3(self).sqrt()
    }

    /// Normalizes the `xyz` part (leaves `w` untouched). Returns the input
    /// unchanged if the length is zero.
    pub fn normalize3(self) -> Vec4 {
        let len = self.length3();
        if len == 0.0 {
            self
        } else {
            Vec4::new(self.x / len, self.y / len, self.z / len, self.w)
        }
    }

    /// Component-wise minimum.
    pub fn min(self, rhs: Vec4) -> Vec4 {
        self.zip(rhs, f32::min)
    }

    /// Component-wise maximum.
    pub fn max(self, rhs: Vec4) -> Vec4 {
        self.zip(rhs, f32::max)
    }

    /// Clamps every component to `[0, 1]` (shader `_SAT` modifier,
    /// framebuffer colour clamping).
    pub fn saturate(self) -> Vec4 {
        self.map(|v| v.clamp(0.0, 1.0))
    }

    /// Component-wise absolute value.
    pub fn abs(self) -> Vec4 {
        self.map(f32::abs)
    }

    /// Component-wise floor.
    pub fn floor(self) -> Vec4 {
        self.map(f32::floor)
    }

    /// Component-wise fractional part (`x - floor(x)`, always in `[0, 1)`).
    pub fn fract(self) -> Vec4 {
        self.map(|v| v - v.floor())
    }

    /// Linear interpolation `self + t * (rhs - self)` per component.
    #[inline]
    pub fn lerp(self, rhs: Vec4, t: f32) -> Vec4 {
        self + (rhs - self) * t
    }

    /// Applies `f` to every component.
    pub fn map(self, f: impl Fn(f32) -> f32) -> Vec4 {
        Vec4::new(f(self.x), f(self.y), f(self.z), f(self.w))
    }

    /// Applies `f` component-pair-wise.
    pub fn zip(self, rhs: Vec4, f: impl Fn(f32, f32) -> f32) -> Vec4 {
        Vec4::new(f(self.x, rhs.x), f(self.y, rhs.y), f(self.z, rhs.z), f(self.w, rhs.w))
    }

    /// The components as an array `[x, y, z, w]`.
    pub fn to_array(self) -> [f32; 4] {
        [self.x, self.y, self.z, self.w]
    }

    /// Whether all components are finite (no NaN/∞ escaped a computation).
    pub fn is_finite(self) -> bool {
        self.x.is_finite() && self.y.is_finite() && self.z.is_finite() && self.w.is_finite()
    }
}

impl From<[f32; 4]> for Vec4 {
    fn from(a: [f32; 4]) -> Self {
        Vec4::new(a[0], a[1], a[2], a[3])
    }
}

impl From<Vec4> for [f32; 4] {
    fn from(v: Vec4) -> Self {
        v.to_array()
    }
}

impl Index<usize> for Vec4 {
    type Output = f32;
    fn index(&self, i: usize) -> &f32 {
        match i {
            0 => &self.x,
            1 => &self.y,
            2 => &self.z,
            3 => &self.w,
            _ => panic!("Vec4 index {i} out of range"),
        }
    }
}

impl IndexMut<usize> for Vec4 {
    fn index_mut(&mut self, i: usize) -> &mut f32 {
        match i {
            0 => &mut self.x,
            1 => &mut self.y,
            2 => &mut self.z,
            3 => &mut self.w,
            _ => panic!("Vec4 index {i} out of range"),
        }
    }
}

impl Add for Vec4 {
    type Output = Vec4;
    #[inline]
    fn add(self, rhs: Vec4) -> Vec4 {
        self.zip(rhs, |a, b| a + b)
    }
}

impl Sub for Vec4 {
    type Output = Vec4;
    #[inline]
    fn sub(self, rhs: Vec4) -> Vec4 {
        self.zip(rhs, |a, b| a - b)
    }
}

impl Mul for Vec4 {
    type Output = Vec4;
    fn mul(self, rhs: Vec4) -> Vec4 {
        self.zip(rhs, |a, b| a * b)
    }
}

impl Mul<f32> for Vec4 {
    type Output = Vec4;
    #[inline]
    fn mul(self, rhs: f32) -> Vec4 {
        self.map(|a| a * rhs)
    }
}

impl Div<f32> for Vec4 {
    type Output = Vec4;
    #[inline]
    fn div(self, rhs: f32) -> Vec4 {
        self.map(|a| a / rhs)
    }
}

impl Neg for Vec4 {
    type Output = Vec4;
    fn neg(self) -> Vec4 {
        self.map(|a| -a)
    }
}

impl fmt::Display for Vec4 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {}, {}, {})", self.x, self.y, self.z, self.w)
    }
}

/// A column-major 4×4 matrix for the fixed-function transform path.
///
/// # Examples
///
/// ```
/// use attila_emu::{Mat4, Vec4};
/// let m = Mat4::translation(1.0, 2.0, 3.0);
/// assert_eq!(m.transform(Vec4::ORIGIN), Vec4::point(1.0, 2.0, 3.0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Mat4 {
    /// Columns of the matrix.
    pub cols: [Vec4; 4],
}

impl Mat4 {
    /// The identity matrix.
    pub const IDENTITY: Mat4 = Mat4 {
        cols: [
            Vec4::new(1.0, 0.0, 0.0, 0.0),
            Vec4::new(0.0, 1.0, 0.0, 0.0),
            Vec4::new(0.0, 0.0, 1.0, 0.0),
            Vec4::new(0.0, 0.0, 0.0, 1.0),
        ],
    };

    /// Builds a matrix from four columns.
    pub const fn from_cols(c0: Vec4, c1: Vec4, c2: Vec4, c3: Vec4) -> Self {
        Mat4 { cols: [c0, c1, c2, c3] }
    }

    /// A translation matrix.
    pub fn translation(x: f32, y: f32, z: f32) -> Self {
        let mut m = Mat4::IDENTITY;
        m.cols[3] = Vec4::new(x, y, z, 1.0);
        m
    }

    /// A (non-uniform) scaling matrix.
    pub fn scale(x: f32, y: f32, z: f32) -> Self {
        Mat4::from_cols(
            Vec4::new(x, 0.0, 0.0, 0.0),
            Vec4::new(0.0, y, 0.0, 0.0),
            Vec4::new(0.0, 0.0, z, 0.0),
            Vec4::new(0.0, 0.0, 0.0, 1.0),
        )
    }

    /// Rotation of `angle` radians around the Y axis.
    pub fn rotation_y(angle: f32) -> Self {
        let (s, c) = angle.sin_cos();
        Mat4::from_cols(
            Vec4::new(c, 0.0, -s, 0.0),
            Vec4::new(0.0, 1.0, 0.0, 0.0),
            Vec4::new(s, 0.0, c, 0.0),
            Vec4::new(0.0, 0.0, 0.0, 1.0),
        )
    }

    /// Rotation of `angle` radians around the X axis.
    pub fn rotation_x(angle: f32) -> Self {
        let (s, c) = angle.sin_cos();
        Mat4::from_cols(
            Vec4::new(1.0, 0.0, 0.0, 0.0),
            Vec4::new(0.0, c, s, 0.0),
            Vec4::new(0.0, -s, c, 0.0),
            Vec4::new(0.0, 0.0, 0.0, 1.0),
        )
    }

    /// A right-handed perspective projection (OpenGL `gluPerspective`
    /// semantics; depth maps to clip `[-w, w]`).
    pub fn perspective(fovy_radians: f32, aspect: f32, near: f32, far: f32) -> Self {
        let f = 1.0 / (fovy_radians / 2.0).tan();
        Mat4::from_cols(
            Vec4::new(f / aspect, 0.0, 0.0, 0.0),
            Vec4::new(0.0, f, 0.0, 0.0),
            Vec4::new(0.0, 0.0, (far + near) / (near - far), -1.0),
            Vec4::new(0.0, 0.0, 2.0 * far * near / (near - far), 0.0),
        )
    }

    /// An orthographic projection (OpenGL `glOrtho` semantics).
    pub fn ortho(left: f32, right: f32, bottom: f32, top: f32, near: f32, far: f32) -> Self {
        Mat4::from_cols(
            Vec4::new(2.0 / (right - left), 0.0, 0.0, 0.0),
            Vec4::new(0.0, 2.0 / (top - bottom), 0.0, 0.0),
            Vec4::new(0.0, 0.0, -2.0 / (far - near), 0.0),
            Vec4::new(
                -(right + left) / (right - left),
                -(top + bottom) / (top - bottom),
                -(far + near) / (far - near),
                1.0,
            ),
        )
    }

    /// A look-at view matrix (OpenGL `gluLookAt` semantics).
    pub fn look_at(eye: Vec4, center: Vec4, up: Vec4) -> Self {
        let f = (center - eye).normalize3();
        let s = f.cross3(up).normalize3();
        let u = s.cross3(f);
        Mat4::from_cols(
            Vec4::new(s.x, u.x, -f.x, 0.0),
            Vec4::new(s.y, u.y, -f.y, 0.0),
            Vec4::new(s.z, u.z, -f.z, 0.0),
            Vec4::new(-s.dot3(eye), -u.dot3(eye), f.dot3(eye), 1.0),
        )
    }

    /// Transforms a vector: `M * v`.
    pub fn transform(&self, v: Vec4) -> Vec4 {
        self.cols[0] * v.x + self.cols[1] * v.y + self.cols[2] * v.z + self.cols[3] * v.w
    }

    /// Matrix product `self * rhs`.
    pub fn mul_mat(&self, rhs: &Mat4) -> Mat4 {
        Mat4 {
            cols: [
                self.transform(rhs.cols[0]),
                self.transform(rhs.cols[1]),
                self.transform(rhs.cols[2]),
                self.transform(rhs.cols[3]),
            ],
        }
    }

    /// The matrix row `i` as a vector (used to load shader constants).
    pub fn row(&self, i: usize) -> Vec4 {
        Vec4::new(self.cols[0][i], self.cols[1][i], self.cols[2][i], self.cols[3][i])
    }
}

impl Default for Mat4 {
    fn default() -> Self {
        Mat4::IDENTITY
    }
}

impl Mul for Mat4 {
    type Output = Mat4;
    fn mul(self, rhs: Mat4) -> Mat4 {
        self.mul_mat(&rhs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: Vec4, b: Vec4) {
        for i in 0..4 {
            assert!((a[i] - b[i]).abs() < 1e-5, "{a} != {b} at component {i}");
        }
    }

    #[test]
    fn arithmetic_ops() {
        let a = Vec4::new(1.0, 2.0, 3.0, 4.0);
        let b = Vec4::new(4.0, 3.0, 2.0, 1.0);
        assert_eq!(a + b, Vec4::splat(5.0));
        assert_eq!(a - b, Vec4::new(-3.0, -1.0, 1.0, 3.0));
        assert_eq!(a * 2.0, Vec4::new(2.0, 4.0, 6.0, 8.0));
        assert_eq!(-a, Vec4::new(-1.0, -2.0, -3.0, -4.0));
        assert_eq!(a / 2.0, Vec4::new(0.5, 1.0, 1.5, 2.0));
    }

    #[test]
    fn dot_products() {
        let a = Vec4::new(1.0, 2.0, 3.0, 4.0);
        let b = Vec4::new(5.0, 6.0, 7.0, 8.0);
        assert_eq!(a.dot3(b), 38.0);
        assert_eq!(a.dot4(b), 70.0);
        assert_eq!(a.dph(b), 46.0);
    }

    #[test]
    fn cross_product_is_orthogonal() {
        let x = Vec4::new(1.0, 0.0, 0.0, 0.0);
        let y = Vec4::new(0.0, 1.0, 0.0, 0.0);
        assert_eq!(x.cross3(y), Vec4::new(0.0, 0.0, 1.0, 0.0));
    }

    #[test]
    fn saturate_clamps() {
        let v = Vec4::new(-1.0, 0.5, 2.0, 1.0);
        assert_eq!(v.saturate(), Vec4::new(0.0, 0.5, 1.0, 1.0));
    }

    #[test]
    fn normalize_handles_zero() {
        assert_eq!(Vec4::ZERO.normalize3(), Vec4::ZERO);
        let n = Vec4::new(3.0, 0.0, 4.0, 9.0).normalize3();
        assert!((n.length3() - 1.0).abs() < 1e-6);
        assert_eq!(n.w, 9.0);
    }

    #[test]
    fn fract_is_always_positive() {
        let v = Vec4::new(-1.25, 1.25, -0.5, 2.0).fract();
        assert_close(v, Vec4::new(0.75, 0.25, 0.5, 0.0));
    }

    #[test]
    fn indexing_matches_fields() {
        let mut v = Vec4::new(1.0, 2.0, 3.0, 4.0);
        assert_eq!(v[0], 1.0);
        assert_eq!(v[3], 4.0);
        v[2] = 9.0;
        assert_eq!(v.z, 9.0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn index_out_of_range_panics() {
        let _ = Vec4::ZERO[4];
    }

    #[test]
    fn matrix_identity_transform() {
        let v = Vec4::new(1.0, 2.0, 3.0, 1.0);
        assert_eq!(Mat4::IDENTITY.transform(v), v);
    }

    #[test]
    fn matrix_translation_and_scale_compose() {
        let m = Mat4::translation(10.0, 0.0, 0.0) * Mat4::scale(2.0, 2.0, 2.0);
        assert_close(m.transform(Vec4::point(1.0, 1.0, 1.0)), Vec4::point(12.0, 2.0, 2.0));
    }

    #[test]
    fn rotation_y_quarter_turn() {
        let m = Mat4::rotation_y(std::f32::consts::FRAC_PI_2);
        assert_close(m.transform(Vec4::point(1.0, 0.0, 0.0)), Vec4::point(0.0, 0.0, -1.0));
    }

    #[test]
    fn perspective_maps_near_plane() {
        let m = Mat4::perspective(std::f32::consts::FRAC_PI_2, 1.0, 1.0, 100.0);
        let v = m.transform(Vec4::point(0.0, 0.0, -1.0));
        // On the near plane, z/w == -1.
        assert!((v.z / v.w + 1.0).abs() < 1e-5);
    }

    #[test]
    fn look_at_centers_target() {
        let m = Mat4::look_at(Vec4::point(0.0, 0.0, 5.0), Vec4::ORIGIN, Vec4::new(0.0, 1.0, 0.0, 0.0));
        let v = m.transform(Vec4::ORIGIN);
        assert_close(v, Vec4::point(0.0, 0.0, -5.0));
    }

    #[test]
    fn row_extraction() {
        let m = Mat4::translation(7.0, 8.0, 9.0);
        assert_eq!(m.row(0), Vec4::new(1.0, 0.0, 0.0, 7.0));
        assert_eq!(m.row(3), Vec4::new(0.0, 0.0, 0.0, 1.0));
    }
}
