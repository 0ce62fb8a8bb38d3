"""XML document model, parser/serializer, and XPath-lite evaluator."""

from .element import XMLElement, element, text_element
from .parser import XMLSpan, children_text, parse_xml, serialize_collection, serialize_xml
from .parser import quoteattr, serialized_size, utf8_len, well_formed
from .path import PathExpression, evaluate_path, evaluate_path_values, parse_path

__all__ = [
    "XMLElement",
    "XMLSpan",
    "element",
    "text_element",
    "parse_xml",
    "children_text",
    "quoteattr",
    "serialize_collection",
    "serialize_xml",
    "serialized_size",
    "utf8_len",
    "well_formed",
    "PathExpression",
    "parse_path",
    "evaluate_path",
    "evaluate_path_values",
]
