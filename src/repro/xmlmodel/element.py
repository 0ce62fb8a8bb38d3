"""In-memory XML document model.

The paper assumes that peers exchange semi-structured data encoded as XML:
for-sale item bundles, catalog entries, and the mutant query plans
themselves.  This module provides the tree representation used throughout
the reproduction.  It is deliberately small — elements with attributes,
child elements and text content — because that is all the paper's examples
require, and it keeps equality, hashing and deep-copy semantics obvious.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping, NoReturn


__all__ = ["NO_ATTRIBUTES", "NO_CHILDREN", "XMLElement", "element", "text_element"]

# Tags repeat massively (a thousand-peer run builds hundreds of thousands of
# <item>/<price>/<plan> nodes), so tag validation is a set hit after the
# first sighting instead of a per-character scan every time.
_VALIDATED_TAGS: set[str] = set()
_VALIDATED_TAGS_LIMIT = 65536


def _refuse(self: object, *args: object, **kwargs: object) -> NoReturn:
    raise TypeError(
        "an element's empty children or attributes are shared and read-only;"
        " grow it with append() or set()"
    )


class _NoChildren(list):
    """The child list of every leaf: one object, empty for good."""

    __slots__ = ()
    append = extend = insert = remove = _refuse  # type: ignore[assignment]
    pop = clear = sort = reverse = _refuse  # type: ignore[assignment]
    __setitem__ = __delitem__ = __iadd__ = __imul__ = _refuse  # type: ignore[assignment]


class _NoAttributes(dict):
    """The attribute map of every element without attributes: one object, empty for good."""

    __slots__ = ()
    __setitem__ = __delitem__ = __ior__ = _refuse  # type: ignore[assignment]
    pop = popitem = clear = update = setdefault = _refuse  # type: ignore[assignment]


# Most elements of a population are leaves (<price>, <organism>, ...), and
# most elements carry no attributes: they all hold these two instead of an
# empty list and dict each.
NO_CHILDREN: list["XMLElement"] = _NoChildren()
NO_ATTRIBUTES: dict[str, str] = _NoAttributes()


class XMLElement:
    """A node in an XML tree.

    Parameters
    ----------
    tag:
        The element name.  Must be a non-empty string without whitespace.
    attributes:
        Mapping of attribute names to string values.  Values are coerced to
        ``str`` so numeric metadata can be passed directly.
    children:
        Child elements, in document order.
    text:
        Text content of the element.  Mixed content (text interleaved with
        children) is not supported; the paper's data model never needs it.

    An element with no children holds :data:`NO_CHILDREN` and one with no
    attributes :data:`NO_ATTRIBUTES`: one shared, read-only empty ``list``
    and ``dict`` for every such element (they equal ``[]`` and ``{}``, and
    their in-place mutators raise ``TypeError``).  So grow an element only
    through :meth:`append`, :meth:`extend` and :meth:`set`, which give it
    its own container first; never mutate ``children`` or ``attributes``
    in place.
    """

    __slots__ = ("tag", "attributes", "children", "text")

    def __init__(
        self,
        tag: str,
        attributes: Mapping[str, object] | None = None,
        children: Iterable["XMLElement"] | None = None,
        text: str | None = None,
    ) -> None:
        if tag not in _VALIDATED_TAGS:
            if not isinstance(tag, str) or not tag or any(ch.isspace() for ch in tag):
                raise ValueError(f"invalid element tag: {tag!r}")
            if len(_VALIDATED_TAGS) >= _VALIDATED_TAGS_LIMIT:
                _VALIDATED_TAGS.clear()
            _VALIDATED_TAGS.add(tag)
        self.tag = tag
        self.attributes: dict[str, str] = (
            {str(key): str(value) for key, value in attributes.items()}
            if attributes
            else NO_ATTRIBUTES
        )
        listed = list(children or ())
        self.children: list[XMLElement] = listed if listed else NO_CHILDREN
        for child in listed:
            if not isinstance(child, XMLElement):
                raise TypeError(f"child must be XMLElement, got {type(child).__name__}")
        self.text = text

    @classmethod
    def _trusted(
        cls,
        tag: str,
        attributes: dict[str, str],
        children: list["XMLElement"],
        text: str | None,
    ) -> "XMLElement":
        """Build a node from already-validated parts, skipping all checks.

        Only for internal callers that can vouch for every argument —
        :meth:`copy` (the source tree was validated when built), the
        parser (expat guarantees string tags/attributes) and the plan wire
        format (operator names and typed string fields).  The arguments are
        adopted, not copied: an empty part must already be
        :data:`NO_ATTRIBUTES` / :data:`NO_CHILDREN`.
        """
        node = cls.__new__(cls)
        node.tag = tag
        node.attributes = attributes
        node.children = children
        node.text = text
        return node

    # ------------------------------------------------------------------ #
    # Construction helpers
    # ------------------------------------------------------------------ #

    def append(self, child: "XMLElement") -> "XMLElement":
        """Append ``child`` and return it (handy for fluent building)."""
        if not isinstance(child, XMLElement):
            raise TypeError(f"child must be XMLElement, got {type(child).__name__}")
        children = self.children
        if children is NO_CHILDREN:
            children = self.children = []
        children.append(child)
        return child

    def extend(self, children: Iterable["XMLElement"]) -> None:
        """Append every element of ``children`` in order."""
        for child in children:
            self.append(child)

    def copy(self) -> "XMLElement":
        """Return a deep copy of this subtree.

        Deep copies dominate result delivery and plan mutation at scale;
        every node of this subtree was validated when it was built, so the
        copy skips re-validation.
        """
        attributes, children = self.attributes, self.children
        return XMLElement._trusted(
            self.tag,
            dict(attributes) if attributes else NO_ATTRIBUTES,
            [child.copy() for child in children] if children else NO_CHILDREN,
            self.text,
        )

    # ------------------------------------------------------------------ #
    # Accessors
    # ------------------------------------------------------------------ #

    def get(self, name: str, default: str | None = None) -> str | None:
        """Return the value of attribute ``name`` or ``default``."""
        return self.attributes.get(name, default)

    def set(self, name: str, value: object) -> None:
        """Set attribute ``name`` to ``str(value)``."""
        if self.attributes is NO_ATTRIBUTES:
            self.attributes = {}
        self.attributes[str(name)] = str(value)

    def find(self, tag: str) -> "XMLElement | None":
        """Return the first direct child with the given tag, or ``None``."""
        for child in self.children:
            if child.tag == tag:
                return child
        return None

    def find_all(self, tag: str) -> list["XMLElement"]:
        """Return every direct child with the given tag, in order."""
        return [child for child in self.children if child.tag == tag]

    def child_text(self, tag: str, default: str | None = None) -> str | None:
        """Return the text of the first child named ``tag``, or ``default``."""
        child = self.find(tag)
        if child is None or child.text is None:
            return default
        return child.text

    def iter(self) -> Iterator["XMLElement"]:
        """Yield this element and every descendant in document order."""
        yield self
        for child in self.children:
            yield from child.iter()

    def iter_tag(self, tag: str) -> Iterator["XMLElement"]:
        """Yield every element in this subtree whose tag equals ``tag``."""
        for node in self.iter():
            if node.tag == tag:
                yield node

    # ------------------------------------------------------------------ #
    # Dunder protocol
    # ------------------------------------------------------------------ #

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, XMLElement):
            return NotImplemented
        return (
            self.tag == other.tag
            and self.attributes == other.attributes
            and (self.text or "") == (other.text or "")
            and self.children == other.children
        )

    def __hash__(self) -> int:
        return hash(
            (
                self.tag,
                tuple(sorted(self.attributes.items())),
                self.text or "",
                tuple(hash(child) for child in self.children),
            )
        )

    def __repr__(self) -> str:
        bits = [f"<{self.tag}"]
        if self.attributes:
            bits.append(f" attrs={self.attributes!r}")
        if self.text is not None:
            bits.append(f" text={self.text!r}")
        if self.children:
            bits.append(f" children={len(self.children)}")
        bits.append(">")
        return "".join(bits)


def element(
    tag: str,
    attributes: Mapping[str, object] | None = None,
    *children: XMLElement,
    text: str | None = None,
) -> XMLElement:
    """Convenience constructor mirroring the nesting of an XML literal."""
    return XMLElement(tag, attributes, list(children), text)


def text_element(tag: str, text: object, attributes: Mapping[str, object] | None = None) -> XMLElement:
    """Build a leaf element whose content is ``str(text)``."""
    return XMLElement(tag, attributes, [], str(text))
