"""Minimal deterministic SVG chart writer.

Rendering is pure text generation with fixed-precision coordinates, so a
chart rebuilt from the same numbers is byte-identical.  Only the handful
of glyphs the reports need: polylines, filled bands, box-and-whisker,
markers, reference lines, linear or log10 y axes.
"""

from __future__ import annotations

import math

_MARGIN_L = 64
_MARGIN_R = 16
_MARGIN_T = 34
_MARGIN_B = 46
_WIDTH, _HEIGHT = 640, 420
_TICKS = 6                       # most ticks an axis gets


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def _nice_ticks(lo: float, hi: float) -> list[float]:
    span = hi - lo                   # > 0: set_limits refuses less
    raw = span / _TICKS
    mag = 10 ** math.floor(math.log10(raw))
    for mult in (1, 2, 5, 10):
        step = mult * mag
        if span / step <= _TICKS:
            break
    first = math.ceil(lo / step) * step
    ticks = []
    t = first
    while t <= hi + step * 1e-9:
        ticks.append(0.0 if abs(t) < step * 1e-9 else t)
        t += step
    return ticks


def _tick_label(v: float) -> str:
    if v == int(v) and abs(v) < 1e6:
        return str(int(v))
    return f"{v:g}"


class SvgFigure:
    """One chart: configure ranges, add glyphs, render."""

    def __init__(self, title: str, xlabel: str, ylabel: str,
                 y_log: bool = False):
        self.title = title
        self.xlabel = xlabel
        self.ylabel = ylabel
        self.y_log = y_log
        self._elements: list[str] = []
        self._xlim = (0.0, 1.0)
        self._ylim = (0.0, 1.0)

    def set_limits(self, xlim: tuple[float, float], ylim: tuple[float, float]):
        if xlim[0] >= xlim[1] or ylim[0] >= ylim[1]:
            raise ValueError("limits must be increasing")
        if self.y_log and ylim[0] <= 0:
            raise ValueError("log axis needs positive limits")
        self._xlim = xlim
        self._ylim = ylim

    def _tx(self, v: float) -> float:
        x0, x1 = self._xlim
        frac = (v - x0) / (x1 - x0)
        return _MARGIN_L + frac * (_WIDTH - _MARGIN_L - _MARGIN_R)

    def _ty(self, v: float) -> float:
        y0, y1 = self._ylim
        if self.y_log:
            frac = (math.log10(v) - math.log10(y0)) / (math.log10(y1) - math.log10(y0))
        else:
            frac = (v - y0) / (y1 - y0)
        return _HEIGHT - _MARGIN_B - frac * (_HEIGHT - _MARGIN_T - _MARGIN_B)

    def polyline(self, xs, ys, color: str = "#1f6fb2", width: float = 1.5):
        pts = " ".join(f"{_fmt(self._tx(x))},{_fmt(self._ty(y))}"
                       for x, y in zip(xs, ys))
        self._elements.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" '
            f'stroke-width="{width:g}"/>'
        )

    def band(self, xs, lows, highs):
        fwd = [f"{_fmt(self._tx(x))},{_fmt(self._ty(y))}" for x, y in zip(xs, highs)]
        back = [f"{_fmt(self._tx(x))},{_fmt(self._ty(y))}"
                for x, y in zip(reversed(list(xs)), reversed(list(lows)))]
        pts = " ".join(fwd + back)
        self._elements.append(f'<polygon points="{pts}" fill="#9ecae9" stroke="none"/>')

    def markers(self, xs, ys):
        for x, y in zip(xs, ys):
            self._elements.append(
                f'<circle cx="{_fmt(self._tx(x))}" cy="{_fmt(self._ty(y))}" '
                'r="3" fill="#1f6fb2"/>'
            )

    def label(self, x: float, y: float, text: str):
        self._elements.append(
            f'<text x="{_fmt(self._tx(x))}" y="{_fmt(self._ty(y))}" '
            'font-size="12" fill="#333333" text-anchor="middle" '
            f'font-family="sans-serif">{text}</text>'
        )

    def hline(self, y: float, color: str = "#c23b22", dash: str = "6,4"):
        self._elements.append(
            f'<line x1="{_fmt(self._tx(self._xlim[0]))}" y1="{_fmt(self._ty(y))}" '
            f'x2="{_fmt(self._tx(self._xlim[1]))}" y2="{_fmt(self._ty(y))}" '
            f'stroke="{color}" stroke-dasharray="{dash}" stroke-width="1.2"/>'
        )

    def box(self, x: float, whisker_lo: float, q1: float, median: float,
            q3: float, whisker_hi: float, half_width: float):
        xl, xr = self._tx(x - half_width), self._tx(x + half_width)
        xc = self._tx(x)
        y_lo, y_q1 = self._ty(whisker_lo), self._ty(q1)
        y_med, y_q3 = self._ty(median), self._ty(q3)
        y_hi = self._ty(whisker_hi)
        e = self._elements
        e.append(f'<line x1="{_fmt(xc)}" y1="{_fmt(y_lo)}" x2="{_fmt(xc)}" '
                 f'y2="{_fmt(y_q1)}" stroke="#1f6fb2" stroke-width="1.2"/>')
        e.append(f'<line x1="{_fmt(xc)}" y1="{_fmt(y_q3)}" x2="{_fmt(xc)}" '
                 f'y2="{_fmt(y_hi)}" stroke="#1f6fb2" stroke-width="1.2"/>')
        for y in (y_lo, y_hi):
            e.append(f'<line x1="{_fmt(xl)}" y1="{_fmt(y)}" x2="{_fmt(xr)}" '
                     f'y2="{_fmt(y)}" stroke="#1f6fb2" stroke-width="1.2"/>')
        e.append(f'<rect x="{_fmt(xl)}" y="{_fmt(y_q3)}" '
                 f'width="{_fmt(xr - xl)}" height="{_fmt(y_q1 - y_q3)}" '
                 f'fill="#d8e8f5" stroke="#1f6fb2" stroke-width="1.2"/>')
        e.append(f'<line x1="{_fmt(xl)}" y1="{_fmt(y_med)}" x2="{_fmt(xr)}" '
                 f'y2="{_fmt(y_med)}" stroke="#1f6fb2" stroke-width="1.8"/>')

    def _y_ticks(self) -> list[float]:
        if not self.y_log:
            return _nice_ticks(*self._ylim)
        lo = math.ceil(math.log10(self._ylim[0]) - 1e-9)
        hi = math.floor(math.log10(self._ylim[1]) + 1e-9)
        return [10.0 ** k for k in range(lo, hi + 1)]

    def _axes(self) -> list[str]:
        x0, y0 = _MARGIN_L, _HEIGHT - _MARGIN_B
        x1, y1 = _WIDTH - _MARGIN_R, _MARGIN_T
        parts = [f'<rect x="{x0}" y="{y1}" width="{x1 - x0}" height="{y0 - y1}" '
                 f'fill="none" stroke="#444444" stroke-width="1"/>']
        for t in _nice_ticks(*self._xlim):
            px = self._tx(t)
            parts.append(f'<line x1="{_fmt(px)}" y1="{y0}" x2="{_fmt(px)}" '
                         f'y2="{y0 + 4}" stroke="#444444" stroke-width="1"/>')
            parts.append(f'<text x="{_fmt(px)}" y="{y0 + 17}" font-size="11" '
                         f'text-anchor="middle" fill="#222222">{_tick_label(t)}</text>')
        for t in self._y_ticks():
            py = self._ty(t)
            parts.append(f'<line x1="{x0 - 4}" y1="{_fmt(py)}" x2="{x0}" '
                         f'y2="{_fmt(py)}" stroke="#444444" stroke-width="1"/>')
            parts.append(f'<text x="{x0 - 7}" y="{_fmt(py + 4)}" font-size="11" '
                         f'text-anchor="end" fill="#222222">{_tick_label(t)}</text>')
        parts.append(f'<text x="{(x0 + x1) // 2}" y="{_MARGIN_T - 12}" '
                     f'font-size="13" text-anchor="middle" '
                     f'fill="#111111">{self.title}</text>')
        if self.xlabel:
            parts.append(f'<text x="{(x0 + x1) // 2}" y="{_HEIGHT - 10}" '
                         f'font-size="12" text-anchor="middle" '
                         f'fill="#111111">{self.xlabel}</text>')
        cy = (y0 + y1) // 2
        parts.append(f'<text x="16" y="{cy}" font-size="12" '
                     f'text-anchor="middle" fill="#111111" '
                     f'transform="rotate(-90 16 {cy})">{self.ylabel}</text>')
        return parts

    def render(self) -> str:
        body = "\n".join(self._axes() + self._elements)
        return (
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" '
            f'height="{_HEIGHT}" viewBox="0 0 {_WIDTH} {_HEIGHT}">\n'
            f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="#ffffff"/>\n'
            f"{body}\n</svg>\n"
        )
