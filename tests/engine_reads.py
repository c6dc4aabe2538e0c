"""Row-form engine reads for tests that assert one value per row.

``ChunkEngine.read`` returns a column — one dense ndarray or a list — and
``column_rows`` cuts it into rows; these two helpers are that pair.
"""

from repro.core.read_plan import column_rows


def engine_rows(engine, rows, **kw):
    """``engine.read(rows, **kw)`` as a list with one value per row."""
    return column_rows(engine.read(rows, **kw))


def engine_row(engine, row, **kw):
    """The value of one row: a scalar row is a 0-d ndarray."""
    return engine_rows(engine, [row], **kw)[0]
