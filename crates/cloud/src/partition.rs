//! Shared-SSD plumbing: a cloneable handle to one device and owned
//! [`BlockDevice`] views over its namespaces.
//!
//! "Each VM's storage space is a partition of the shared SSD, treated as a
//! block device with its own logical address space … however, the
//! underlying FTL and its mapping table are shared across partitions"
//! (§4.1).

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

use ssdhammer_core::LbaRange;
use ssdhammer_nvme::{Namespace, NsId, Ssd};
use ssdhammer_simkit::{BlockDevice, Lba, StorageError, StorageResult};

/// A shared handle to the one physical SSD of the host.
#[derive(Debug, Clone)]
pub struct SharedSsd(Rc<RefCell<Ssd>>);

impl SharedSsd {
    /// Wraps a device for sharing between tenants.
    #[must_use]
    pub fn new(ssd: Ssd) -> Self {
        SharedSsd(Rc::new(RefCell::new(ssd)))
    }

    /// Borrows the device immutably.
    ///
    /// # Panics
    ///
    /// Panics if the device is already mutably borrowed (single-threaded
    /// reentrancy bug).
    #[must_use]
    pub fn borrow(&self) -> std::cell::Ref<'_, Ssd> {
        self.0.borrow()
    }

    /// Borrows the device mutably.
    ///
    /// # Panics
    ///
    /// Panics if the device is already borrowed.
    #[must_use]
    pub fn borrow_mut(&self) -> std::cell::RefMut<'_, Ssd> {
        self.0.borrow_mut()
    }

    /// Creates a namespace of `blocks` and returns `(id, device-LBA range)`.
    ///
    /// # Errors
    ///
    /// Propagates capacity errors.
    pub fn create_partition(
        &self,
        blocks: u64,
    ) -> Result<(NsId, LbaRange), ssdhammer_nvme::NvmeError> {
        let mut ssd = self.borrow_mut();
        let ns = ssd.create_namespace(blocks)?;
        let start = ssd.translate(ns, Lba(0))?;
        Ok((ns, LbaRange { start, blocks }))
    }
}

/// An owned [`BlockDevice`] over one namespace of a [`SharedSsd`] — what a
/// VM sees as "its disk". Suitable for mounting an `ssdhammer-fs`
/// filesystem on.
#[derive(Debug, Clone)]
pub struct PartitionView {
    ssd: SharedSsd,
    ns: NsId,
}

impl PartitionView {
    /// Creates a view of `ns`.
    #[must_use]
    pub fn new(ssd: SharedSsd, ns: NsId) -> Self {
        PartitionView { ssd, ns }
    }

    /// The namespace this view covers.
    #[must_use]
    pub fn ns(&self) -> NsId {
        self.ns
    }

    /// The shared device handle.
    #[must_use]
    pub fn ssd(&self) -> &SharedSsd {
        &self.ssd
    }

    /// Runs `op` on the namespace view of this partition, holding the
    /// device borrow for the one operation.
    fn with_view<T>(
        &self,
        op: impl FnOnce(&mut Namespace<'_>) -> StorageResult<T>,
    ) -> StorageResult<T> {
        let mut ssd = self.ssd.borrow_mut();
        let mut view = ssd.namespace(self.ns).map_err(|e| StorageError::Rejected {
            reason: e.to_string(),
        })?;
        op(&mut view)
    }
}

impl BlockDevice for PartitionView {
    fn capacity_blocks(&self) -> u64 {
        self.ssd
            .borrow()
            .namespace_blocks(self.ns)
            .expect("namespace exists for the view's lifetime") // lint:allow(P1) -- BlockDevice::capacity_blocks is an infallible trait signature; the view validated its namespace at construction
    }

    fn read(&mut self, lba: Lba) -> StorageResult<Arc<[u8]>> {
        self.with_view(|view| view.read(lba))
    }

    fn write(&mut self, lba: Lba, buf: &[u8]) -> StorageResult<()> {
        self.with_view(|view| view.write(lba, buf))
    }

    fn trim(&mut self, lba: Lba) -> StorageResult<()> {
        self.with_view(|view| view.trim(lba))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssdhammer_nvme::SsdConfig;
    use ssdhammer_simkit::BLOCK_SIZE;

    #[test]
    fn partitions_are_disjoint_ranges() {
        let shared = SharedSsd::new(Ssd::build(SsdConfig::test_small(1)));
        let (_a, ra) = shared.create_partition(1000).unwrap();
        let (_b, rb) = shared.create_partition(1000).unwrap();
        assert_eq!(ra.start, Lba(0));
        assert_eq!(rb.start, Lba(1000));
        assert!(!ra.contains(Lba(1000)));
        assert!(rb.contains(Lba(1999)));
    }

    #[test]
    fn views_read_and_write_independently() {
        let shared = SharedSsd::new(Ssd::build(SsdConfig::test_small(1)));
        let (a, _) = shared.create_partition(100).unwrap();
        let (b, _) = shared.create_partition(100).unwrap();
        let mut va = PartitionView::new(shared.clone(), a);
        let mut vb = PartitionView::new(shared.clone(), b);
        va.write(Lba(0), &[1u8; BLOCK_SIZE]).unwrap();
        vb.write(Lba(0), &[2u8; BLOCK_SIZE]).unwrap();
        assert_eq!(va.read(Lba(0)).unwrap()[0], 1);
        assert_eq!(vb.read(Lba(0)).unwrap()[0], 2);
        assert_eq!(va.capacity_blocks(), 100);
    }

    #[test]
    fn view_respects_namespace_bounds() {
        let shared = SharedSsd::new(Ssd::build(SsdConfig::test_small(1)));
        let (a, _) = shared.create_partition(10).unwrap();
        let mut va = PartitionView::new(shared, a);
        assert!(va.read(Lba(10)).is_err());
    }
}
