"""Channel recordings for tests, written by the writer every CSV artifact uses.

``write_recording`` writes a :class:`~cemsim.replay.TimeSeriesTable` as a
channel CSV through :func:`cemsim.replay.write_csv` with ``CHANNEL_HEADER``
and ``CHANNEL_ROW``, so a fixture recording has the bytes of a recording a
``run`` writes.
"""
from cemsim.replay import CHANNEL_HEADER, CHANNEL_ROW, write_csv


def write_recording(path, table):
    """Write ``table`` to ``path``, one line per knot, sorted by time, then
    subsystem id and channel name."""
    rows = []
    for subsystem_id, name in table.keys():
        channel = table.channel(subsystem_id, name)
        rows.extend((t_ns, subsystem_id, name, value) for t_ns, value in zip(channel.times_ns, channel.values))
    rows.sort(key=lambda row: row[:3])
    write_csv(path, CHANNEL_HEADER, CHANNEL_ROW, rows)
