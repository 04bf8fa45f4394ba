"""The reference of the text report format, kept apart from the CLI's
writer: a text report is `"".join(line + "\\n" for line in text_lines(payload))`."""


def text_lines(value, indent: int = 0) -> list[str]:
    """The lines of the text report of a dict or list: `key: item` for each
    item of a dict, `- item` for each item of a list, and a nested dict or
    list under its own `key:` or `-` line, one indent deeper. Tuples and
    scalars print through `str`. A dict or list met more than once is
    written in full each time."""
    pad, lines = "  " * indent, []
    if isinstance(value, dict):
        items = zip(map("{}:".format, value), value.values())
    else:
        items = (("-", item) for item in value)
    for head, item in items:
        if isinstance(item, (dict, list)):
            lines.append(f"{pad}{head}")
            lines += text_lines(item, indent + 1)
        else:
            lines.append(f"{pad}{head} {item}")
    return lines
