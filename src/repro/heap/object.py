"""Typed persistent object handles.

A :class:`PersistentStruct` subclass declares its layout once::

    class Node(PersistentStruct):
        fields = [
            ("key", Int64()),
            ("value", FixedStr(32)),
            ("next", PPtr()),
            ("prev", PPtr()),
        ]

Instances are lightweight *handles* — (heap, oid) pairs — not copies of
the data.  Attribute reads load bytes from simulated NVM; attribute
writes require an active transaction with a declared write intent on the
object, mirroring NVML's ``TX_ADD`` discipline that Kamino-Tx hooks.
"""

from __future__ import annotations

from typing import ClassVar, List, Optional, Tuple

from ..errors import SchemaError
from ..tx.base import TxState
from .layout import FieldType, PNULL
from .schema import GLOBAL_REGISTRY, FieldInfo, StructSchema

#: Bytes of per-object header: type_id u32, data_size u32, reserved u64.
OBJ_HEADER_SIZE = 16


class _FieldDescriptor:
    """Routes ``obj.field`` loads/stores through the owning heap."""

    __slots__ = ("info", "_unpack", "_pack", "_offset", "_size")

    def __init__(self, info: FieldInfo):
        self.info = info
        # bound once: the codec and layout never change after schema
        # creation, and every attribute saved here is one fewer lookup
        # on the hottest path in the repo (obj.field loads)
        self._unpack = info.ftype.unpack
        self._pack = info.ftype.pack
        self._offset = info.offset
        self._size = info.ftype.size

    def __get__(self, obj: Optional["PersistentStruct"], owner=None):
        if obj is None:
            return self
        # lock discipline: inside an ACTIVE transaction the first load
        # of an object that is in neither its read set nor its write set
        # calls engine.on_read over the whole block (the locking engines
        # take the object's shared lock and add it to the read set);
        # later loads, and loads outside a transaction, take no lock.
        # The bytes then come from the engine's read translation when it
        # has one (copy-on-write shadows), else straight from the
        # device.  Written out inline, with no helper call, because this
        # is the hottest path in the repo.
        heap = obj._heap
        tx = getattr(heap._tls, "tx", None)
        if tx is not None and tx.state is TxState.ACTIVE:
            block = obj._oid - OBJ_HEADER_SIZE
            if block not in tx.read_set and block not in tx.write_set:
                heap._on_read(tx, block, heap.allocator.block_size_of(block))
        else:
            tx = None
        offset = obj._oid + self._offset
        size = self._size
        if heap._translates:
            dest = heap.engine.translate_read(tx, offset, size)
            if dest is not None:
                region, off = dest
                return self._unpack(region.read(off, size))
        if offset + size <= heap._heap_size:
            return self._unpack(heap._dev_read(heap._heap_off + offset, size))
        return self._unpack(heap.region.read(offset, size))

    def __set__(self, obj: "PersistentStruct", value) -> None:
        obj._heap.write_object_field(obj, self.info, self._pack(value))


class PersistentStructMeta(type):
    """Builds the schema and installs field descriptors at class creation."""

    def __new__(mcls, name, bases, namespace):
        fields = namespace.get("fields")
        cls = super().__new__(mcls, name, bases, namespace)
        if fields:
            schema = StructSchema(name, fields)
            cls._schema = schema
            for info in schema.fields:
                setattr(cls, info.name, _FieldDescriptor(info))
            GLOBAL_REGISTRY.register(schema, cls)
        return cls


class PersistentStruct(metaclass=PersistentStructMeta):
    """Base class for typed persistent objects; see module docstring."""

    #: subclasses set this to a list of (name, FieldType) pairs
    fields: ClassVar[List[Tuple[str, FieldType]]] = []
    _schema: ClassVar[Optional[StructSchema]] = None

    __slots__ = ("_heap", "_oid")

    def __init__(self, heap, oid: int):
        if type(self)._schema is None:
            raise SchemaError(f"{type(self).__name__} declares no fields")
        if oid == PNULL:
            raise SchemaError("cannot create a handle to the null pointer")
        object.__setattr__(self, "_heap", heap)
        object.__setattr__(self, "_oid", oid)

    # -- identity -------------------------------------------------------------

    @property
    def oid(self) -> int:
        """Persistent object id: the heap offset of the object's data."""
        return self._oid

    @property
    def block_offset(self) -> int:
        """Offset of the allocation block (header precedes the data)."""
        return self._oid - OBJ_HEADER_SIZE

    @property
    def schema(self) -> StructSchema:
        return type(self)._schema

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, PersistentStruct)
            and self._oid == other._oid
            and self._heap is other._heap
        )

    def __hash__(self) -> int:
        return hash((id(self._heap), self._oid))

    def __repr__(self) -> str:
        return f"<{type(self).__name__} oid={self._oid:#x}>"

    # -- convenience ----------------------------------------------------------

    def tx_add(self) -> None:
        """Declare a write intent for this whole object (NVML TX_ADD)."""
        self._heap.tx_add(self)

    def fields_dict(self) -> dict:
        """Snapshot all fields as a plain dict (reads each field once)."""
        return {info.name: getattr(self, info.name) for info in self.schema.fields}
