"""Visualization engine (§4.3): htype-driven layout + streamed rendering.

"It considers htype of the tensors to determine the best layout for
visualization.  Primary tensors, such as image, video and audio are
displayed first, while secondary data and annotations, such as text,
class_label, bbox and binary_mask are overlayed."

The engine renders samples into a software framebuffer *and* emits the
render-command list a WebGL client would consume, streaming only the
bytes a view needs:

- whole-sample views prefer the hidden downsampled tensor when present;
- region views of tiled samples fetch only intersecting tile chunks;
- video/sequence playback decodes only from the governing keyframe.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.compression import get_codec
from repro.exceptions import VisualizerError
from repro.visualizer.renderer import (
    FrameBuffer,
    color_for,
    downsample,
    fit_scale,
    resize_nearest,
    to_rgb,
)

PRIMARY_HTYPES = ("image", "video", "dicom", "audio")
OVERLAY_HTYPES = ("bbox", "binary_mask", "segment_mask", "keypoints_coco",
                  "point")
BADGE_HTYPES = ("class_label", "text")


@dataclass
class Layer:
    tensor: str
    role: str  # 'primary' | 'overlay' | 'badge' | 'info'
    htype: str


@dataclass
class Scene:
    """Layout decision for one sample."""

    primary: Optional[Layer]
    overlays: List[Layer] = field(default_factory=list)
    badges: List[Layer] = field(default_factory=list)
    info: List[Layer] = field(default_factory=list)


class Visualizer:
    """Renders dataset samples from (possibly remote) storage."""

    def __init__(self, ds, viewport: Tuple[int, int] = (512, 512),
                 tensors: Optional[Sequence[str]] = None):
        self.ds = ds
        self.viewport = viewport
        #: optional restriction of which tensors participate in the layout
        self.tensor_filter = list(tensors) if tensors else None
        #: render-command log of the last render (the "WebGL" stream)
        self.commands: List[Dict] = []

    # ------------------------------------------------------------------ #
    # layout
    # ------------------------------------------------------------------ #

    def scene(self) -> Scene:
        """Classify visible tensors by htype into a layout (Fig layout of
        §4.3: primary first, annotations overlayed)."""
        primary: Optional[Layer] = None
        overlays: List[Layer] = []
        badges: List[Layer] = []
        info: List[Layer] = []
        for short, tensor in sorted(self.ds.tensors.items()):
            if self.tensor_filter is not None and short not in self.tensor_filter:
                continue
            meta = tensor.meta
            layer = Layer(tensor=short, role="", htype=meta.htype)
            if meta.htype in PRIMARY_HTYPES and primary is None:
                layer.role = "primary"
                primary = layer
            elif meta.htype in OVERLAY_HTYPES:
                layer.role = "overlay"
                overlays.append(layer)
            elif meta.htype in BADGE_HTYPES:
                layer.role = "badge"
                badges.append(layer)
            else:
                layer.role = "info"
                info.append(layer)
        return Scene(primary, overlays, badges, info)

    # ------------------------------------------------------------------ #
    # helpers
    # ------------------------------------------------------------------ #

    def _emit(self, op: str, **params) -> None:
        self.commands.append({"op": op, **params})

    def _primary_image(self, layer: Layer, index: int,
                       prefer_downsampled: bool) -> np.ndarray:
        name = self.ds._qualify(layer.tensor)
        engine = self.ds._engine(name)
        links = engine.meta.links
        if prefer_downsampled and "downsampled" in links:
            down = self.ds._engine(links["downsampled"])
            if index < down.num_samples:
                self._emit("fetch", tensor=links["downsampled"], index=index,
                           downsampled=True)
                return down.read_sample(index)
        self._emit("fetch", tensor=name, index=index, downsampled=False)
        value = engine.read_sample(index)
        if engine.meta.htype == "video":
            value = value[0]  # poster frame
        if engine.meta.htype == "audio":
            value = _waveform_image(value)
        return value

    def _label_text(self, layer: Layer, index: int) -> str:
        name = self.ds._qualify(layer.tensor)
        engine = self.ds._engine(name)
        value = engine.read_sample(index)
        if engine.meta.is_text:
            return bytes(np.asarray(value).tobytes()).decode("utf-8")[:48]
        names = engine.meta.info.get("class_names")
        flat = np.ravel(np.asarray(value))
        labels = []
        for v in flat[:4]:
            i = int(v)
            labels.append(names[i] if names and 0 <= i < len(names) else str(i))
        return f"{layer.tensor}: " + ",".join(labels)

    # ------------------------------------------------------------------ #
    # rendering
    # ------------------------------------------------------------------ #

    def render(self, index: int, prefer_downsampled: bool = True) -> FrameBuffer:
        """Render one sample with all its overlays into the framebuffer."""
        self.commands = []
        scene = self.scene()
        fb = FrameBuffer(*self.viewport)
        if scene.primary is None:
            fb.draw_text("NO PRIMARY TENSOR", 8, 8)
            return fb
        base = to_rgb(
            self._primary_image(scene.primary, index, prefer_downsampled)
        )
        scale = min(1.0, fit_scale(base.shape[:2], self.viewport))
        out_h = max(1, int(base.shape[0] * scale))
        out_w = max(1, int(base.shape[1] * scale))
        shown = resize_nearest(base, out_h, out_w) if scale < 1.0 else base
        oy = (self.viewport[0] - out_h) // 2
        ox = (self.viewport[1] - out_w) // 2
        fb.blit(shown, oy, ox)
        self._emit("blit", tensor=scene.primary.tensor, y=oy, x=ox,
                   h=out_h, w=out_w, scale=round(scale, 4))

        # annotations map through the same scale/offset as the image
        full_name = self.ds._qualify(scene.primary.tensor)
        full_shape = self.ds._engine(full_name).read_shape(index)
        if len(full_shape) >= 2 and full_shape[0]:
            ann_scale = out_h / full_shape[0]
        else:
            ann_scale = scale
        for li, layer in enumerate(scene.overlays):
            self._render_overlay(fb, layer, index, oy, ox, ann_scale, li)
        ty = 6
        for layer in scene.badges:
            text = self._label_text(layer, index)
            fb.draw_text(text.upper(), ty, 6, color=(255, 255, 255))
            self._emit("text", tensor=layer.tensor, text=text, y=ty, x=6)
            ty += 12
        return fb

    def _render_overlay(self, fb: FrameBuffer, layer: Layer, index: int,
                        oy: int, ox: int, scale: float, li: int) -> None:
        name = self.ds._qualify(layer.tensor)
        engine = self.ds._engine(name)
        value = engine.read_sample(index)
        color = color_for(li)
        if layer.htype == "bbox":
            boxes = np.atleast_2d(np.asarray(value, dtype=np.float64))
            for box in boxes:
                if box.shape[0] < 4:
                    continue
                x, y, w, h = box[:4]
                fb.draw_rect(
                    int(oy + y * scale), int(ox + x * scale),
                    int(oy + (y + h) * scale), int(ox + (x + w) * scale),
                    color,
                )
                self._emit("rect", tensor=layer.tensor,
                           box=[float(x), float(y), float(w), float(h)])
        elif layer.htype in ("binary_mask", "segment_mask"):
            mask = np.asarray(value)
            if mask.ndim == 3:
                mask = mask[:, :, 0]
            mask = mask > 0
            factor = max(1, int(round(1 / scale))) if scale < 1 else 1
            small = mask[::factor, ::factor]
            fb.blend_mask(small, oy, ox, color)
            self._emit("mask", tensor=layer.tensor,
                       coverage=round(float(mask.mean()), 4))
        elif layer.htype in ("point", "keypoints_coco"):
            pts = np.atleast_2d(np.asarray(value, dtype=np.float64))
            for pt in pts:
                if pt.shape[0] < 2:
                    continue
                x, y = pt[0], pt[1]
                fb.draw_rect(
                    int(oy + y * scale) - 2, int(ox + x * scale) - 2,
                    int(oy + y * scale) + 2, int(ox + x * scale) + 2,
                    color, thickness=4,
                )
            self._emit("points", tensor=layer.tensor, count=len(pts))

    # ------------------------------------------------------------------ #
    # grid / region / playback views
    # ------------------------------------------------------------------ #

    def render_grid(self, indices: Sequence[int], cols: int = 4,
                    cell: int = 128) -> FrameBuffer:
        """Dataset-inspection grid of thumbnails (quality-control view)."""
        rows = -(-len(indices) // cols)
        fb = FrameBuffer(rows * cell, cols * cell)
        self.commands = []
        scene = self.scene()
        if scene.primary is None:
            raise VisualizerError("grid view needs a primary tensor")
        for i, index in enumerate(indices):
            img = to_rgb(self._primary_image(scene.primary, index, True))
            factor = max(1, int(max(img.shape[0], img.shape[1]) / cell))
            thumb = downsample(img, factor)
            thumb = resize_nearest(thumb, cell - 4, cell - 4)
            y = (i // cols) * cell + 2
            x = (i % cols) * cell + 2
            fb.blit(thumb, y, x)
            self._emit("thumb", index=index, y=y, x=x)
        return fb

    def render_region(self, index: int, region: Sequence[slice],
                      tensor: Optional[str] = None) -> FrameBuffer:
        """Viewport into a huge (tiled) image: fetches only intersecting
        tile chunks via ranged reads."""
        self.commands = []
        scene = self.scene()
        layer_name = tensor or (scene.primary.tensor if scene.primary else None)
        if layer_name is None:
            raise VisualizerError("region view needs a primary tensor")
        name = self.ds._qualify(layer_name)
        engine = self.ds._engine(name)
        part = engine.read_tiled_region(index, tuple(region))
        self._emit("region", tensor=layer_name,
                   region=[[s.start, s.stop] for s in region],
                   tiled=index in engine.tile_enc)
        fb = FrameBuffer(*self.viewport)
        img = to_rgb(part)
        scale = min(1.0, fit_scale(img.shape[:2], self.viewport))
        h = max(1, int(img.shape[0] * scale))
        w = max(1, int(img.shape[1] * scale))
        fb.blit(resize_nearest(img, h, w), 0, 0)
        return fb

    def play_frame(self, index: int, t: int, tensor: Optional[str] = None) -> np.ndarray:
        """Seek to frame *t* of a video sample decoding only from the
        nearest keyframe ("jump to the specific position of the sequence
        without fetching the whole data", §4.3)."""
        self.commands = []
        scene = self.scene()
        layer_name = tensor or (scene.primary.tensor if scene.primary else None)
        name = self.ds._qualify(layer_name)
        engine = self.ds._engine(name)
        meta = engine.meta
        if meta.htype == "video" and meta.sample_compression == "mp4":
            raw = engine.read_batch([index], decode=False)[0]
            codec = get_codec("mp4")
            self._emit(
                "seek", tensor=layer_name, frame=t,
                bytes_needed=codec.bytes_needed_for_range(raw, t, t + 1),
                bytes_total=len(raw),
            )
            return codec.decode_range(raw, t, t + 1)[0]
        if meta.is_sequence:
            start, end = engine.seq_enc.item_range(index)
            if not 0 <= t < end - start:
                raise VisualizerError(f"frame {t} out of range")
            self._emit("seek", tensor=layer_name, frame=t)
            return engine.read_items([start + t])[0]
        raise VisualizerError(f"{layer_name!r} is not playable")


def _waveform_image(signal: np.ndarray, height: int = 160,
                    width: int = 480) -> np.ndarray:
    """Audio primary tensors render as a waveform plot."""
    sig = np.asarray(signal, dtype=np.float64)
    if sig.ndim == 2:
        sig = sig[:, 0]
    if sig.size == 0:
        return np.zeros((height, width, 3), dtype=np.uint8)
    bins = np.array_split(sig, width)
    peak = max(1e-9, float(np.max(np.abs(sig))))
    img = np.zeros((height, width, 3), dtype=np.uint8)
    mid = height // 2
    for x, chunk in enumerate(bins):
        if chunk.size == 0:
            continue
        hi = int(mid - np.max(chunk) / peak * (mid - 2))
        lo = int(mid - np.min(chunk) / peak * (mid - 2))
        img[min(hi, lo) : max(hi, lo) + 1, x] = (90, 200, 250)
    return img
